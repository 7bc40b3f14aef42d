"""Stage, terminal, and collision-penalty costs, plus cost-to-go evaluation.

Every cost is evaluated through a StateCost, one affine map of its argument
followed by sums of squares.  A CostSpec builds its three once: x'Qx + psi(x),
x'Q_F x + psi_F(x) and u'Ru.  The penalties psi and psi_F are StateCosts
themselves and take Q's factor into their own map, so the state part of a
stage is one map and one pass over its squares.

TailEvaluator re-simulates the continuation of a stage on rows
[x | |x|^2 | 1], kept as column blocks, two products per stage to the next
state and its cost map.  A backward sweep builds each tail on the one after
it, so every stage policy is compiled once per sweep; the tails of a run
share one _TailMaps, which holds what a stage's compilation reads of its
dictionary alone.  A simulation can be kept as a Trajectory: what a
reverse-mode pass over it reads, which gives the continuation's exact
gradient dV/dy at its rows through the cost's StateCost.sums_gradient and
the kernel's vector-Jacobian product.  TailEvaluator.extend puts one more
stage in front of a kept trajectory.  A CostSpec keeps only the symmetric
parts of its weights, the parts its costs read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dynamics import STATE_GUARD, LinearSystem, TrajectoryBatch, check_norms
from .kernels import KernelPolicy, KernelSpec, StageExpansion

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
    "Trajectory",
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


def _symmetric_part(M) -> np.ndarray:
    """(M + M') / 2 as a 2-d float array; a symmetric M comes back unchanged, bit for bit."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return 0.5 * (M + M.T)


def _signed_factor(M: np.ndarray):
    """(F, w) with x'Mx = sum_j w_j (x F[:, j])^2 and each w_j = +-1; null directions drop."""
    lam, vecs = np.linalg.eigh(_symmetric_part(M))
    keep = lam != 0.0
    return vecs[:, keep] * np.sqrt(np.abs(lam[keep])), np.sign(lam[keep])


class StateCost:
    """A batched cost through one affine map z = x lin + offset of its argument.

    With the sums s = squares_to_sums' (z * z) of each row, the cost is

        s_last + sum_p pair_weight / (s_p + softening) - shift.

    The last column of squares_to_sums weights squares into one sum (a
    quadratic form through its signed factor, speed tracking); every other
    column sums a pair's planar displacement into its squared distance.
    shift is the value of the first two terms at x = 0, so the cost vanishes
    there.  Inputs are batched (..., n); of_sums and sums_gradient read the
    sums as (..., sum, row), the layout of a tail's column blocks.
    """

    def __init__(self, lin, offset, squares_to_sums, pair_weight=0.0, softening=1.0):
        self.lin = lin
        self.offset = offset
        self.squares_to_sums = squares_to_sums
        self.pair_weight = pair_weight
        self.pair_weights = np.full(squares_to_sums.shape[1] - 1, float(pair_weight))
        self.softening = softening
        self.shift = 0.0
        self.shift = float(self.of_sums(((offset * offset) @ squares_to_sums)[:, None])[0])

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
        """The cost from the sums laid out (..., sum, row), batched over the leading axes."""
        out = sums[..., -1, :]
        if self.pair_weights.size:
            out = out + self.pair_weights @ (1.0 / (sums[..., :-1, :] + self.softening))
        if self.shift:
            out = out - self.shift
        return out

    def sums_gradient(self, sums, out):
        """The cost's derivative with respect to its sums, written into out and returned.

        It is 1 for the last sum and -pair_weight / (s_p + softening)^2 for
        a pair's, in the layout of of_sums; out may be sums itself.  Through
        the sums, the gradient with respect to the map z is
        2 z * (squares_to_sums @ sums_gradient).
        """
        if self.pair_weights.size:
            pairs = out[..., :-1, :]
            np.add(sums[..., :-1, :], self.softening, out=pairs)
            np.multiply(pairs, pairs, out=pairs)
            np.divide(-self.pair_weight, pairs, out=pairs)
        out[..., -1, :] = 1.0
        return out

    def __call__(self, x):
        z = np.asarray(x, dtype=float) @ self.lin + self.offset
        sums = (z * z) @ self.squares_to_sums
        if sums.ndim == 1:
            return self.of_sums(sums[:, None])[0]
        return self.of_sums(np.swapaxes(sums, -1, -2))


@dataclass
class CostSpec:
    """Quadratic weights plus optional nonlinear stage/terminal penalties.

    The penalties psi and psi_F are StateCosts, such as the intersection's
    proximity and speed-tracking cost.  The cost objects are built once,
    here: state_cost is x'Qx + psi(x), final_cost x'Q_F x + psi_F(x) and
    control_cost u'Ru.  tail_cost is state_cost with control_cost's squares
    as extra map columns, which TailEvaluator fills from the controls.

    A quadratic form reads only its weight's symmetric part, so Q, R and Q_F
    keep only that part: every formula written with a weight, such as the
    stage gradient's 2 pi R, then agrees with the costs.
    """

    Q: np.ndarray
    R: np.ndarray
    Q_F: np.ndarray
    psi: Optional[StateCost] = None
    psi_F: Optional[StateCost] = None

    def __post_init__(self) -> None:
        self.Q, self.R, self.Q_F = (_symmetric_part(M) for M in (self.Q, self.R, self.Q_F))
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
    """What every tail of one run shares (see TailEvaluator): matrices, row layout and parts.

    A row is kept as a column block [x | z | |x|^2 | s | 1 | k]: the state,
    the cost map z and its sums of squares s of the stage before (zeros in
    the first block), the state's squared norm, a one and the kernel values.
    head is the number of rows before k.  stage is the stacked matrix's part
    shared by every stage, [[A' | L]; 0; [0 | offset]] on the rows x and 1;
    control is [B' | 0 | F_R]; to_sums takes the squares of [x | z] to
    [|x|^2 | s]; from_sums is twice the cost's squares_to_sums, which takes
    the cost's derivative with respect to s to its map z
    (StateCost.sums_gradient).  final, final_to_sums and final_from_sums do
    the same for the terminal cost on the head of the last block.

    parts(anchors) holds what a stage's compilation reads of its dictionary
    alone, once per anchors.  height is that of the tallest stage compiled
    so far, and so of a simulation's column blocks.
    """

    def __init__(self, sys: LinearSystem, spec: CostSpec):
        n = sys.n
        cost, final = spec.tail_cost, spec.final_cost
        width = cost.lin.shape[1]
        count = cost.squares_to_sums.shape[1]
        self.n, self.norm, self.one = n, n + width, n + width + 1 + count
        self.head = self.height = self.one + 1
        factor = spec.control_cost.lin
        self.stage = np.zeros((self.head, n + width))
        self.stage[:n, :n] = sys.A.T
        self.stage[:n, n:] = cost.lin
        self.stage[self.one, n:] = cost.offset
        self.forward_head = np.ascontiguousarray(self.stage.T)
        self.control = np.zeros((sys.m, n + width))
        self.control[:, :n] = sys.B.T
        self.control[:, n + width - factor.shape[1] :] = factor
        self.to_sums = np.zeros((1 + count, n + width))
        self.to_sums[0, :n] = 1.0
        self.to_sums[1:, n:] = cost.squares_to_sums.T
        self.from_sums = 2.0 * cost.squares_to_sums
        self.final = np.zeros((final.lin.shape[1], self.head))
        self.final[:, :n] = final.lin.T
        self.final[:, self.one] = final.offset
        self.final_to_sums = np.ascontiguousarray(final.squares_to_sums.T)
        self.final_from_sums = 2.0 * final.squares_to_sums
        # the rows a stage's back matrix takes its gradient to: x and |x|^2
        self.back_rows = list(range(n)) + [self.norm]
        self._parts: dict = {}

    def lift(self, matrix: np.ndarray) -> np.ndarray:
        """An anchor matrix for rows [x | |x|^2 | 1] moved onto the rows of a block's head."""
        n = self.n
        lifted = np.zeros((self.head, matrix.shape[1]))
        lifted[:n] = matrix[:n]
        lifted[self.norm] = matrix[n]
        lifted[self.one] = matrix[n + 1]
        return lifted

    def parts(self, anchors):
        """(kernel, back) of a stage over the anchors (see _Stage), compiled once per anchors."""
        parts = self._parts.get(anchors)
        if parts is None:
            lifted = self.lift(anchors.matrix)
            back = np.hstack([self.stage[self.back_rows], lifted[self.back_rows]])
            back[-1] *= 2.0
            parts = self._parts[anchors] = (np.ascontiguousarray(lifted.T), back)
        return parts


class _Stage:
    """One stage policy compiled for a tail.

    K = kernel @ head gives the kernel values of a block (None for the
    linear kernel); forward @ block[:height] gives [next state | cost map];
    gate = forward[:, head:]' takes the gradient of that product to the
    kernel values; back takes [that gradient | the kernel products'
    gradient] to the block's x and |x|^2 rows, the latter doubled.  kernel
    and back depend on the dictionary alone (_TailMaps.parts), so compiling
    a stage takes its coefficients' product with the control matrix and one
    fill of forward.
    """

    __slots__ = ("anchors", "kernel", "forward", "gate", "back", "height")

    def __init__(self, maps: _TailMaps, kernel: KernelSpec, stage):
        expansion = StageExpansion(kernel, stage)
        self.anchors = expansion.anchors
        step = expansion.coeffs @ maps.control
        if expansion.anchors is None:
            stacked = maps.stage.copy()
            stacked[: step.shape[0]] += step
            self.kernel = self.gate = None
            self.back = stacked[maps.back_rows]
            self.back[-1] *= 2.0
            self.forward = np.ascontiguousarray(stacked.T)
        else:
            self.kernel, self.back = maps.parts(expansion.anchors)
            self.gate = step
            self.forward = np.concatenate((maps.forward_head, step.T), axis=1)
        self.height = self.forward.shape[1]
        maps.height = max(maps.height, self.height)  # the blocks of later simulations fit it


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
    compiles each stage policy once, and a run that starts every sweep from
    one empty tail builds its maps once.

    A row is carried as a column block whose head holds x, |x|^2 and 1 (see
    _TailMaps), and one product with the stage's anchor matrix gives its
    kernel values k (kernels._Anchors).  Each stage is compiled into one
    stacked matrix [[A' | L]; 0; [0 | offset]; coeffs [B' | 0 | F_R]], with
    L and offset the map of the spec's tail_cost and F_R the control's cost
    factor, so one product of the block gives the next state and the
    stage's cost map, drift, control and offset included, straight into the
    next block.  For the linear kernel the control part folds into the rows
    of x: a stage is one product of the head.  A last product takes the
    squares of [next state | cost map] to the next state's squared norm and
    the cost map's sums of squares, in place in the next block; the cost's
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
            self._stages = [_Stage(self._maps, policy.kernel, policy.stages[t]) for t in later]
        else:
            if rest.start_stage != start_stage + 1 or rest.stage_count != self.stage_count - 1:
                raise ValueError("rest must be the tail from start_stage + 1 of the same policy")
            self._maps = rest._maps
            stage = _Stage(self._maps, policy.kernel, policy.stages[start_stage])
            self._stages = [stage] + rest._stages

    def values(self, states, keep=False):
        """Continuation values at the rows of states, shape (N,).

        With keep, it returns (values, trajectory): the Trajectory holds what
        a backward pass over this simulation reads, and its gradient() gives
        the exact dV/dy at the rows.

        The divergence guard tests the stored squared norms of the rows
        entering each stage once, after the loop; when it fails,
        dynamics.check_norms raises for the first stage with a row past the
        guard.  Such a row runs on through the later stages without
        warnings.  The final rows meet no guard.
        """
        path = self._simulate(self._stages, np.atleast_2d(np.asarray(states, dtype=float)))
        return (path.values, path) if keep else path.values

    def extend(self, states, rest: Optional["Trajectory"] = None) -> "Trajectory":
        """The trajectory from states through this tail's first stage, then rest.

        rest is a trajectory of the remaining stages from the successors of
        states under that stage, so the result covers this whole tail; one
        stage is simulated.  An empty tail takes no rest: its trajectory is
        the terminal cost at states.
        """
        X = np.atleast_2d(np.asarray(states, dtype=float))
        if rest is None:
            if self.stage_count:
                raise ValueError("only an empty tail extends without a rest")
            return self._simulate([], X)
        if rest.stage_count != self.stage_count - 1:
            raise ValueError("rest must cover the stages after this tail's first")
        return self._simulate(self._stages[:1], X, rest)

    def _simulate(self, stages, X, rest=None) -> "Trajectory":
        """Run the compiled stages on the rows of X and keep what the backward pass reads.

        Rows are kept as columns, so that every product and every kernel's
        exp and power runs on contiguous blocks: W[i] is the block of the
        rows entering stage i, W[-1] that of the rows the stages leave.
        Without rest the values end in the terminal cost; with it, in rest's
        values.
        """
        maps = self._maps
        N, n = X.shape
        norm, head = maps.norm, maps.head
        sums = slice(norm, maps.one)
        W = np.empty((len(stages) + 1, maps.height, N))
        squares = np.empty((norm, N))
        W[0, :n] = X.T
        W[0, n:norm] = 0.0
        W[:, maps.one] = 1.0
        # a row past the guard runs on to the test after the loop, and may
        # overflow on the way without a warning, its values included; the
        # final rows meet no guard here
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(W[0, :norm], W[0, :norm], out=squares)
            np.matmul(maps.to_sums, squares, out=W[0, sums])
            for i, stage in enumerate(stages):
                block, following = W[i], W[i + 1, :norm]
                if stage.anchors is not None:
                    stage.anchors.apply(
                        np.matmul(stage.kernel, block[:head], out=block[head : stage.height])
                    )
                np.matmul(stage.forward, block[: stage.height], out=following)
                np.multiply(following, following, out=squares)
                np.matmul(maps.to_sums, squares, out=W[i + 1, sums])
            path = Trajectory(self.spec, maps, stages, W, rest)
        if not W[:-1, norm].max(initial=0.0) <= STATE_GUARD**2:
            for i in range(len(stages)):
                check_norms(W[i, norm], self.start_stage + i, "tail simulation")
        return path


class Trajectory:
    """One simulation of a tail from its rows, kept for a backward (adjoint) pass.

    values are the continuation values at the rows; states() the rows
    entering each stage and the final rows; gradient() the exact dV/dy at
    the rows by reverse mode.  A trajectory covers its own stages
    (TailEvaluator._simulate) and then either the terminal cost or rest,
    the trajectory of the later stages from its last rows' successors.

    Walking back, the gradient with respect to a stage's product
    [next state | cost map] is [lambda | 2 z * (from_sums @ the cost's
    sums_gradient)], with lambda the gradient at the next rows.  The gate
    takes it to the kernel values, the anchors' vjp from there to their
    products, and the stage's back matrix takes both to the block's x and
    |x|^2 rows: lambda at x is the x part plus x times the doubled |x|^2
    part.  Each trajectory keeps its gradient once computed, so a trajectory
    extended by one stage walks one stage back; the walk consumes the
    column blocks, keeping only the states.
    """

    def __init__(self, spec, maps, stages, W, rest):
        self._spec = spec
        self._maps = maps
        self._stages = stages
        self._W = W
        self.rest = rest
        self.stage_count = len(stages) + (rest.stage_count if rest is not None else 0)
        self._gradient = None
        if rest is None:
            z = maps.final @ W[-1, : maps.head]
            self._final_map = z, maps.final_to_sums @ (z * z)
            total = spec.final_cost.of_sums(self._final_map[1])
        else:
            total = rest.values
        if stages:
            per_stage = spec.tail_cost.of_sums(W[1:, maps.norm + 1 : maps.one])
            total = per_stage.sum(axis=0) + total
        self.values = total

    def states(self) -> np.ndarray:
        """(N, stage_count + 1, n): the rows entering every stage, then the final rows."""
        n = self._maps.n
        parts, path = [], self
        while path.rest is not None:
            parts.append(path._W[:-1, :n])
            path = path.rest
        parts.append(path._W[:, :n])
        return np.concatenate(parts).transpose(2, 0, 1)

    def gradient(self):
        """(dV/dy at the rows, stages walked back to get it).

        A gradient that overflows is returned non-finite, without warnings.
        """
        chain, path = [], self
        while path is not None and path._gradient is None:
            chain.append(path)
            path = path.rest
        lam = None if path is None else path._gradient
        walked = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for path in reversed(chain):
                walked += len(path._stages)
                lam = path._backward(lam)
        return self._gradient.T, walked

    def _backward(self, lam):
        """Walk this trajectory's own stages back from lam, the gradient at its last rows' successors.

        Gradients are columns (n, N), like the rows in the blocks.  The walk
        runs in place in the blocks, which it consumes: stage i's gradient
        [lambda | z grad | kernel products' grad] is written over block i + 1
        once stage i + 1 has read it, and lambda at the rows entering stage
        i over their x.
        """
        maps, spec, W = self._maps, self._spec, self._W
        n, norm, head = maps.n, maps.norm, maps.head
        if lam is None:
            z, sums = self._final_map
            final = spec.final_cost
            # not in place: an empty tail's values may be a view of the sums
            z *= maps.final_from_sums @ final.sums_gradient(sums, np.empty_like(sums))
            lam = final.lin @ z
        states = W[:, :n].copy()  # a copy, so that the blocks are freed
        if self._stages:
            cost_sums = W[1:, norm + 1 : maps.one]
            per_sum = spec.tail_cost.sums_gradient(cost_sums, cost_sums)
            W[1:, n:norm] *= np.matmul(maps.from_sums, per_sum)
            W[-1, :n] = lam
            for i in range(len(self._stages) - 1, -1, -1):
                stage, block, grad = self._stages[i], W[i], W[i + 1]
                if stage.anchors is None:
                    g = stage.back @ grad[:norm]
                else:
                    end = norm + stage.height - head
                    np.matmul(stage.gate, grad[:norm], out=grad[norm:end])
                    stage.anchors.vjp(
                        block[head : stage.height], grad[norm:end], lambda: stage.kernel @ block[:head]
                    )
                    g = stage.back @ grad[:end]
                np.multiply(block[:n], g[n], out=block[:n])
                block[:n] += g[:n]
            lam = W[0, :n].copy()
        # no later walk passes a kept gradient: keep only the states
        self._gradient = lam
        self._W = states
        self._final_map = None
        self._stages = ()
        return lam


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
