"""Stage, terminal, and collision-penalty costs, plus cost-to-go evaluation.

Every cost is evaluated through a StateCost, one affine map of its argument
followed by sums of squares.  A CostSpec builds its three once: x'Qx + psi(x),
x'Q_F x + psi_F(x) and u'Ru.  The penalties psi and psi_F are StateCosts
themselves and take Q's factor into their own map, so the state part of a
stage is one map and one pass over its squares.

TailEvaluator re-simulates the continuation of a stage on rows
[x | |x|^2 | 1], two products per stage to the next state and its cost map.
A backward sweep builds each tail on the one after it, so every stage policy
is compiled once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dynamics import STATE_GUARD, LinearSystem, TrajectoryBatch, check_norms
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


class _TailMaps:
    """The matrices every stage of a tail shares (see TailEvaluator).

    stage is [[A' | L]; 0; [0 | offset]], control [B' | 0 | F_R], final
    [[L_F]; 0; [offset_F]], and to_sums takes the squares of [x | z] to
    [|x|^2 | the cost map's sums of squares].
    """

    def __init__(self, sys: LinearSystem, spec: CostSpec):
        n = sys.n
        cost, final = spec.tail_cost, spec.final_cost
        width = cost.lin.shape[1]
        factor = spec.control_cost.lin
        self.stage = np.zeros((n + 2, n + width))
        self.stage[:n, :n] = sys.A.T
        self.stage[:n, n:] = cost.lin
        self.stage[n + 1, n:] = cost.offset
        self.control = np.zeros((sys.m, n + width))
        self.control[:, :n] = sys.B.T
        self.control[:, n + width - factor.shape[1] :] = factor
        self.final = np.vstack([final.lin, np.zeros_like(final.offset), final.offset])
        self.to_sums = np.zeros((n + width, 1 + cost.squares_to_sums.shape[1]))
        self.to_sums[:n, 0] = 1.0
        self.to_sums[n:, 1:] = cost.squares_to_sums


class TailEvaluator:
    """Continuation values by re-simulating stages start_stage..T under given policies.

    values(states) simulates each row forward under the policy tail and returns
    the accumulated stage costs plus the terminal cost.  Used as the successor
    evaluator when improving the policy at stage start_stage - 1.  The stage
    policies are snapshotted at construction; later mutation of the policy
    object is not reflected.

    rest, when given, is the tail from start_stage + 1 of the same system,
    cost and policy: its compiled stages and shared maps (_TailMaps) are
    reused, and only stage start_stage is compiled.  A backward sweep so
    compiles each stage policy once.

    A row is carried as [x | |x|^2 | 1], and one product with the stage's
    anchor matrix gives its kernel values k (kernels._Anchors).  Each stage
    is compiled into one stacked matrix
    [[A' | L]; 0; [0 | offset]; coeffs [B' | 0 | F_R]], with L and offset
    the map of the spec's tail_cost and F_R the control's cost factor, so one
    product of [row | k] gives the next state and the stage's cost map,
    drift, control and offset included.  For the linear kernel the control
    part folds into the first n rows: a stage is one (n + 2)-row product.
    A last product takes the squares of [next state | cost map] to the next
    state's squared norm and the cost map's sums of squares; the cost's
    nonlinear rest (StateCost.of_sums) runs once per call, over all stages.
    """

    def __init__(
        self,
        sys: LinearSystem,
        spec: CostSpec,
        policy: KernelPolicy,
        start_stage: int,
        rest: Optional["TailEvaluator"] = None,
    ):
        if not 0 <= start_stage <= policy.horizon:
            raise ValueError("start_stage out of range")
        self.spec = spec
        self.start_stage = start_stage
        self.stage_count = policy.horizon - start_stage
        if rest is None:
            self._maps = _TailMaps(sys, spec)
            later = range(start_stage, policy.horizon)
            self._stages = [self._compile(policy.kernel, policy.stages[t]) for t in later]
        else:
            if rest.start_stage != start_stage + 1 or rest.stage_count != self.stage_count - 1:
                raise ValueError("rest must be the tail from start_stage + 1 of the same policy")
            self._maps = rest._maps
            stage = self._compile(policy.kernel, policy.stages[start_stage])
            self._stages = [stage] + rest._stages
        # a row [x | |x|^2 | 1 | k] is as wide as the tallest stacked matrix
        self._row_width = max((s.shape[0] for _, s in self._stages), default=sys.n + 2)

    def _compile(self, kernel, stage):
        """(anchors, stacked matrix) of one stage policy; anchors is None for the linear kernel."""
        expansion = StageExpansion(kernel, stage)
        step = expansion.coeffs @ self._maps.control
        if expansion.anchors is None:
            stacked = self._maps.stage.copy()
            stacked[: step.shape[0]] += step
            return None, stacked
        return expansion.anchors, np.vstack([self._maps.stage, step])

    def values(self, states, directions=None):
        """Continuation values at the rows of states, shape (N,).

        With directions, a (k, n) array of rows d_j, it returns (values,
        slopes) where slopes[i, j] is the exact directional derivative
        dV/dy . d_j at row i.  The tangent rows [dx | 2 x . dx | 0] ride
        below the state rows, in k blocks of N, through the same products of
        every stage: the kernel features' Jacobian (kernels._Anchors) and the
        cost's derivative (StateCost.slopes_of_sums) carry them.

        Only state rows meet the divergence guard, one test of their stored
        squared norms after the loop; when it fails, dynamics.check_norms
        raises for the first stage with a row past the guard.  Such a row
        runs on through the later stages without warnings.  A tangent that
        overflows gives a non-finite slope.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        N, n = X.shape
        blocks = 1
        if directions is not None:
            D = np.atleast_2d(np.asarray(directions, dtype=float))
            blocks += D.shape[0]
        # column-major, so that the kernel values of a stage are one contiguous
        # block for the kernel's exp and power
        W = np.zeros((blocks * N, self._row_width), order="F")
        W3 = W.reshape(blocks, N, -1)
        W3[0, :, :n] = X
        if blocks > 1:
            W3[1:, :, :n] = D[:, None, :]
        W[:N, n + 1] = 1.0
        final = self.spec.final_cost
        if self._stages:
            sums = self._simulate(W, N, blocks)
        # the |x|^2 row of maps.final is zero: after the stages the norm column
        # lags a stage behind, and nothing reads it
        z = (W[:, : n + 2] @ self._maps.final).reshape(blocks, N, -1)
        final_sums = (z * z[0]).reshape(blocks * N, -1) @ final.squares_to_sums
        final_sums = final_sums.reshape(blocks, N, -1)
        total = final.of_sums(final_sums[0])
        if blocks > 1:
            slopes = final.slopes_of_sums(final_sums[0], final_sums[1:])
        if self._stages:
            cost = self.spec.tail_cost
            sums = sums.reshape(self.stage_count, blocks, N, -1)[..., 1:]
            total = cost.of_sums(sums[:, 0]).sum(axis=0) + total
            if blocks > 1:
                slopes = cost.slopes_of_sums(sums[:, :1], sums[:, 1:]).sum(axis=0) + slopes
        return total if blocks == 1 else (total, slopes.T)

    def _simulate(self, W, N, blocks):
        """Run the stages on the rows of W, in place, and return each stage's sums.

        W's rows are [x | |x|^2 | 1 | room for k], the N state rows first;
        this fills |x|^2.  The (stages, rows, 1 + sums) result holds the
        squared norm of each row a stage leaves (x . dx for tangent rows)
        and the sums of squares of its cost map.
        """
        maps = self._maps
        n = maps.stage.shape[0] - 2
        rows = blocks * N
        # sums[0] holds the squared norms of the rows entering the first stage
        sums = np.empty((self.stage_count + 1, rows, maps.to_sums.shape[1]))
        to_sums = maps.to_sums
        Z = np.empty((rows, maps.stage.shape[1]))
        Z3 = Z.reshape(blocks, N, -1)
        squares = np.empty_like(Z)
        squares3 = squares.reshape(blocks, N, -1)
        W3 = W.reshape(blocks, N, -1)
        row, state, norm, tangent_norm = W[:, : n + 2], W[:, :n], W[:, n], W[N:, n]
        # a row past the guard runs on to the test after the loop, and may
        # overflow on the way without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(W3[..., :n] * W3[0, :, :n], to_sums[:n], out=sums[0].reshape(blocks, N, -1))
            for i, (anchors, stacked) in enumerate(self._stages):
                norm[...] = sums[i, :, 0]
                if blocks > 1:
                    # the sums hold x . dx; the tangent of |x|^2 is twice that
                    tangent_norm *= 2.0
                if anchors is None:
                    np.matmul(row, stacked, out=Z)
                else:
                    K = W[:, n + 2 : stacked.shape[0]]
                    anchors.apply(np.matmul(row, anchors.matrix, out=K), N)
                    np.matmul(W[:, : stacked.shape[0]], stacked, out=Z)
                np.multiply(Z3, Z3[0], out=squares3)
                np.matmul(squares, to_sums, out=sums[i + 1])
                state[...] = Z[:, :n]
        if not sums[:-1, :N, 0].max(initial=0.0) <= STATE_GUARD**2:
            for i in range(self.stage_count):
                check_norms(sums[i, :N, 0], self.start_stage + i, "tail simulation")
        return sums[1:]


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
