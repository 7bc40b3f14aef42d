"""Stage, terminal, and collision-penalty costs, plus cost-to-go evaluation.

Every cost is evaluated through a StateCost, one affine map of its argument
followed by sums of squares.  A CostSpec builds its three once: x'Qx + psi(x),
x'Q_F x + psi_F(x) and u'Ru.  The penalties psi and psi_F are StateCosts
themselves and take Q's factor into their own map, so the state part of a
stage is one map and one pass over its squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dynamics import LinearSystem, TrajectoryBatch, check_norms
from .kernels import KernelPolicy, StageExpansion

__all__ = [
    "CostSpec",
    "CollisionSpec",
    "CostToGoTable",
    "StateCost",
    "collision_penalty",
    "stage_cost",
    "terminal_cost",
    "evaluate_cost_to_go",
    "TailEvaluator",
    "empirical_stage_objective",
]


@dataclass
class CollisionSpec:
    """Soft proximity penalty parameters for a vehicle team."""

    safety_distance: float
    softening: float

    def __post_init__(self) -> None:
        if not self.safety_distance > 0:
            raise ValueError("safety_distance must be > 0")
        if not self.softening > 0:
            raise ValueError("softening must be > 0")


@lru_cache(maxsize=None)
def _pair_indices(V: int):
    iu, ju = np.triu_indices(V, k=1)
    return iu, ju


# The solver evaluates the same sum through the intersection's StateCost; this
# direct form stays as the tests' reference and perfbench's hooked layer.
def collision_penalty(positions, spec: CollisionSpec):
    """Sum over unordered vehicle pairs of d_safe^2 / (distance^2 + softening).

    positions has shape (..., V, 2); the result drops the last two axes.
    A single vehicle yields zero.  The softening constant keeps the value
    finite even for coincident positions.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim < 2 or pos.shape[-1] != 2:
        raise ValueError("positions must have shape (..., V, 2)")
    V = pos.shape[-2]
    if V < 1:
        raise ValueError("need at least one vehicle")
    if V == 1:
        return np.zeros(pos.shape[:-2])
    iu, ju = _pair_indices(V)
    diff = pos[..., iu, :] - pos[..., ju, :]
    d2 = np.sum(diff * diff, axis=-1)
    terms = spec.safety_distance**2 / (d2 + spec.softening)
    return np.sum(terms, axis=-1)


def _signed_factor(M: np.ndarray):
    """(F, w) with x'Mx = sum_j w_j (x F[:, j])^2 and each w_j = +-1; null directions drop."""
    lam, vecs = np.linalg.eigh(0.5 * (M + M.T))
    keep = lam != 0.0
    return vecs[:, keep] * np.sqrt(np.abs(lam[keep])), np.sign(lam[keep])


class StateCost:
    """A batched cost through one affine map z = x lin + offset of its argument.

    With s = (z * z) @ squares_to_sums, the cost is

        s_last + sum_p pair_weight / (s_p + softening) - shift.

    The last column of squares_to_sums weights squares into one sum (a
    quadratic form through its signed factor, speed tracking); every other
    column sums a pair's planar displacement into its squared distance.
    shift is the value of the first two terms at x = 0, so the cost vanishes
    there.  Inputs are batched (..., n).
    """

    def __init__(self, lin, offset, squares_to_sums, pair_weight=0.0, softening=1.0):
        self.lin = lin
        self.offset = offset
        self.squares_to_sums = squares_to_sums
        self.pair_weight = pair_weight
        self.pair_weights = np.full(squares_to_sums.shape[1] - 1, float(pair_weight))
        self.softening = softening
        self.shift = 0.0
        self.shift = float(self.of_sums((offset * offset) @ squares_to_sums))

    @classmethod
    def quadratic(cls, M: np.ndarray, psi: Optional["StateCost"] = None) -> "StateCost":
        """x'Mx + psi(x), with M's factor taken into psi's map."""
        F, w = _signed_factor(M)
        if psi is None:
            return cls(F, np.zeros(w.size), w[:, None])
        return psi.plus_squares(F, w)

    def plus_squares(self, lin: np.ndarray, signs: np.ndarray) -> "StateCost":
        """This cost plus sum_j signs_j (x lin[:, j])^2, as extra columns of the same map."""
        to_sum = np.zeros((signs.size, self.squares_to_sums.shape[1]))
        to_sum[:, -1] = signs
        return StateCost(
            np.hstack([self.lin, lin]),
            np.concatenate([self.offset, np.zeros(signs.size)]),
            np.vstack([self.squares_to_sums, to_sum]),
            self.pair_weight,
            self.softening,
        )

    def of_sums(self, sums):
        """The cost from the sums s = (z * z) @ squares_to_sums, batched over leading axes."""
        out = sums[..., -1]
        if self.pair_weights.size:
            out = out + (1.0 / (sums[..., :-1] + self.softening)) @ self.pair_weights
        if self.shift:
            out = out - self.shift
        return out

    def slopes_of_sums(self, sums, cross_sums):
        """The cost's derivative along a tangent dz of its map z.

        With cross_sums = (z * dz) @ squares_to_sums the sums move by
        ds = 2 cross_sums, so the slope is
        ds_last - sum_p pair_weight ds_p / (s_p + softening)^2.  sums
        broadcasts against cross_sums.
        """
        out = cross_sums[..., -1]
        if self.pair_weights.size:
            shifted = sums[..., :-1] + self.softening
            out = out - (cross_sums[..., :-1] / (shifted * shifted)) @ self.pair_weights
        return 2.0 * out

    def __call__(self, x):
        z = np.asarray(x, dtype=float) @ self.lin + self.offset
        return self.of_sums((z * z) @ self.squares_to_sums)


@dataclass
class CostSpec:
    """Quadratic weights plus optional nonlinear stage/terminal penalties.

    The penalties psi and psi_F are StateCosts, such as the intersection's
    proximity and speed-tracking cost.  The cost objects are built once,
    here: state_cost is x'Qx + psi(x), final_cost x'Q_F x + psi_F(x) and
    control_cost u'Ru.  tail_cost is state_cost with control_cost's squares
    as extra map columns, which TailEvaluator fills from the controls.
    """

    Q: np.ndarray
    R: np.ndarray
    Q_F: np.ndarray
    psi: Optional[StateCost] = None
    psi_F: Optional[StateCost] = None

    def __post_init__(self) -> None:
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.Q_F = np.atleast_2d(np.asarray(self.Q_F, dtype=float))
        self.state_cost = StateCost.quadratic(self.Q, self.psi)
        self.final_cost = StateCost.quadratic(self.Q_F, self.psi_F)
        self.control_cost = StateCost.quadratic(self.R)
        self.tail_cost = self.state_cost.plus_squares(
            np.zeros((self.n, self.control_cost.lin.shape[1])),
            self.control_cost.squares_to_sums[:, -1],
        )

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]


def stage_cost(x, u, spec: CostSpec):
    """x'Qx + u'Ru + psi(x), batched over leading axes."""
    return spec.state_cost(x) + spec.control_cost(u)


def terminal_cost(x, spec: CostSpec):
    """x'Q_F x + psi_F(x), batched over leading axes."""
    return spec.final_cost(x)


@dataclass
class CostToGoTable:
    """Per-sample remaining-cost values V_t along simulated trajectories."""

    values: np.ndarray  # (N, T+1)

    @property
    def total_cost(self) -> float:
        return float(self.values[:, 0].mean())


def evaluate_cost_to_go(batch: TrajectoryBatch, spec: CostSpec) -> CostToGoTable:
    """Backward recursion V_t = stage cost + V_{t+1} along each trajectory.

    The terminal column equals the terminal cost at the sampled final states,
    and the mean of the first column is the empirical horizon cost.
    """
    N, T = batch.sample_count, batch.horizon
    V = np.empty((N, T + 1))
    V[:, T] = terminal_cost(batch.states[:, T], spec)
    for t in range(T - 1, -1, -1):
        V[:, t] = stage_cost(batch.states[:, t], batch.controls[:, t], spec) + V[:, t + 1]
    return CostToGoTable(V)


class TailEvaluator:
    """Continuation values by re-simulating stages start_stage..T under given policies.

    values(states) simulates each row forward under the policy tail and returns
    the accumulated stage costs plus the terminal cost.  Used as the successor
    evaluator when improving the policy at stage start_stage - 1.  The stage
    policies are snapshotted at construction; later mutation of the policy
    object is not reflected.

    Each stage is two products: X [A' | L] with L the map of the spec's
    tail_cost, fixed for the tail, and the stage's kernel features times
    coeffs [B' | 0 | F_R], which adds the control's effect on the next state
    and its cost factor.  For the linear kernel the features are X itself, so
    the two matrices are summed and a stage is one product.  A third product
    takes the squares of [next state | cost map] to the next state's squared
    norm, which the next stage's guard and kernel read, and the cost map's
    sums of squares; the cost's nonlinear rest (StateCost.of_sums) is
    applied once per call, over all stages.
    """

    def __init__(self, sys: LinearSystem, spec: CostSpec, policy: KernelPolicy, start_stage: int):
        if not 0 <= start_stage <= policy.horizon:
            raise ValueError("start_stage out of range")
        self.spec = spec
        self.start_stage = start_stage
        self.stage_count = policy.horizon - start_stage
        cost = spec.tail_cost
        control_factor = spec.control_cost.lin
        width = cost.lin.shape[1]
        self._state_map = np.hstack([sys.A.T, cost.lin])
        control_map = np.zeros((sys.m, sys.n + width))
        control_map[:, : sys.n] = sys.B.T
        control_map[:, sys.n + width - control_factor.shape[1] :] = control_factor
        self._to_sums = np.zeros((sys.n + width, 1 + cost.squares_to_sums.shape[1]))
        self._to_sums[: sys.n, 0] = 1.0
        self._to_sums[sys.n :, 1:] = cost.squares_to_sums
        self._linear = policy.kernel.family == "linear"
        self._stages = []
        for t in range(start_stage, policy.horizon):
            expansion = StageExpansion(policy.kernel, policy.stages[t])
            step = expansion.coeffs @ control_map
            if self._linear:
                step += self._state_map
            self._stages.append((expansion, step))

    def values(self, states, directions=None):
        """Continuation values at the rows of states, shape (N,).

        With directions, a (k, n) array of rows d_j, it returns (values,
        slopes) where slopes[i, j] is the exact directional derivative
        dV/dy . d_j at row i.  The tangent rows ride below the state rows,
        in k blocks of N, through the same products of every stage: the
        kernel features' Jacobian (kernels._Anchors) and the cost's
        derivative (StateCost.slopes_of_sums) carry them.  Only state rows
        meet the divergence guard; a tangent that overflows gives a
        non-finite slope.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        N, n = X.shape
        blocks = 1
        if directions is not None:
            D = np.atleast_2d(np.asarray(directions, dtype=float))
            blocks += D.shape[0]
            X = np.concatenate([X, np.repeat(D, N, axis=0)])
        cost = self.spec.tail_cost
        width = self._to_sums.shape[1]
        sums = np.empty((self.stage_count, blocks * N, width))
        if self.stage_count:
            # |x|^2 of the state rows, then x . dx of each tangent row with its
            # state row, through the state part of the map each stage uses below
            X3 = X.reshape(blocks, N, n)
            norms = (X3 * X3[0]).reshape(blocks * N, n) @ self._to_sums[:n, 0]
        for i, (expansion, step) in enumerate(self._stages):
            check_norms(norms[:N], self.start_stage + i, "tail simulation")
            if self._linear:
                Z = X @ step
            else:
                Z = expansion.features(X, norms, N) @ step
                Z += X @ self._state_map
            Z[:N, n:] += cost.offset
            Z3 = Z.reshape(blocks, N, -1)
            np.matmul((Z3 * Z3[0]).reshape(blocks * N, -1), self._to_sums, out=sums[i])
            norms = sums[i, :, 0]
            X = Z[:, :n]
        final = self.spec.final_cost
        z = (X @ final.lin).reshape(blocks, N, -1)
        z[0] += final.offset
        final_sums = (z * z[0]).reshape(blocks * N, -1) @ final.squares_to_sums
        final_sums = final_sums.reshape(blocks, N, -1)
        total = final.of_sums(final_sums[0])
        if blocks > 1:
            slopes = final.slopes_of_sums(final_sums[0], final_sums[1:])
        if self.stage_count:
            sums = sums.reshape(self.stage_count, blocks, N, width)[..., 1:]
            total = cost.of_sums(sums[:, 0]).sum(axis=0) + total
            if blocks > 1:
                slopes = cost.slopes_of_sums(sums[:, :1], sums[:, 1:]).sum(axis=0) + slopes
        return total if blocks == 1 else (total, slopes.T)


def empirical_stage_objective(
    candidate_coeffs: np.ndarray,
    states_at_t,
    successor_value: Callable[[np.ndarray], np.ndarray],
    sys: LinearSystem,
    spec: CostSpec,
    cross: np.ndarray,
) -> float:
    """Sample-average one-stage cost of candidate coefficients plus continuation.

    Controls at the sampled states are the cross-Gram matrix (sampled states
    by dictionary points, as cross_gram returns it) times the candidate
    coefficients; successor_value returns continuation values at the induced
    successor states.  This is the plain reference form of the objective the
    stage solver evaluates.
    """
    X = np.atleast_2d(np.asarray(states_at_t, dtype=float))
    C = np.asarray(candidate_coeffs, dtype=float)
    pi = cross @ C
    Y = X @ sys.A.T + pi @ sys.B.T
    vals = stage_cost(X, pi, spec) + np.asarray(successor_value(Y), dtype=float)
    return float(vals.mean())
