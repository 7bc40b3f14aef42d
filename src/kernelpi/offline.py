"""Full-horizon policy iteration with implicit secant-type stage updates.

Each outer iteration improves the policy stage by stage from the last stage
to the first, at the sample batch simulated under the policy entering it.
A stage improvement solves the implicit step condition

    J_t(c_new) - J_t(c_old) = -(1/delta) ||pi_new - pi_old||^2

where the norm stacks the policy values at the sampled states.  Any solution
with a nonzero step strictly decreases the stage objective, and because each
stage objective chains exactly into the next through the re-simulated
continuation values, the recorded total cost is non-increasing across outer
iterations by construction.

Every stage policy carries its dictionary of anchor states.  A given policy
brings its own; otherwise they are drawn from a zero-control rollout of the
batch before the first iteration.  They stay fixed for the run, so one
StageSolver per stage, built once per run_policy_iteration call, holds what
its updates share: the dictionary, the inverse of the ridge-shifted Gram
matrix formed through the Cholesky factor (once per dictionary, so once
for all the runs that share one), the solver settings, the cost and the
model.  Each update computes only the cross-Gram matrix at the sampled
states and its own counters.

The inner solver picks the Gram-preconditioned descent direction V and
finds the step length by a safeguarded secant solve in one dimension.  It
stops at the first descending step whose secant gap is at most
ROOT_TOL * inner_tol * (1 + |J_old|), so the identity above holds to that
precision for every accepted step.  A trial step a is one simulation: from
the sampled states X_t through stage t at c_old + a V, then through the
updated later stages (a TailEvaluator from stage t on the line, whose stage
t is compiled once per update and moved by one axpy per trial, and whose
first kernel block is the cross-Gram matrix the update already holds).
J(a) is the mean of its values.  Each sweep grows one tail from the run's
empty terminal tail: once stage t is updated, the tail for stage t - 1 is
the previous one with only stage t compiled in front, and what a stage's
compilation reads of its dictionary alone is built once per run.

The usual first trial is a_u = -s0 delta / ||P||^2, with s0 the slope of
J along V at a = 0 and P = cross V.  Every update accepted "ok" returns the
curvature its accepted step shows, theta = 2 (J(a) - J0 - s0 a) /
(a^2 ||P||^2), and every other outcome returns 0.  A sweep keeps each
stage's last theta and passes it to the stage's next update; a stage
without one borrows the theta that stage t + 1, updated just before it,
returned: theta is curvature per unit squared change of the policy values,
and neighbouring stages show nearly the same.
When theta > 0 and theta delta / 2 <= CURVATURE_GATE the first trial is
a_c = -s0 / (||P||^2 (theta / 2 + 1 / delta)), g's root if J is quadratic
along V with that curvature.  A curvature step the stop rule does not
accept is the root solve's first point like any other trial.  It lies
short of a_u, where g >= 0 whenever J is convex along V, so while the
trials stay short of a_u and the bracket has no upper end, the next trial
is the interpolated root capped at a_u instead of a doubled step.

The direction comes from the gradient of J at the old coefficients, which
needs the continuation values at the successor states and their slopes
dV/dy B.  A sweep hands each stage t the trajectory stage t + 1 kept, which
runs from the batch rows X_{t+1} under the updated stages t + 1..T (for
the last stage, the batch trajectory's terminal part, Trajectory.terminal,
which simulates nothing), and the batch trajectory's own stage-t costs
c0_t.  J0 is their mean plus the mean handed value, and one walk back over
the handed trajectory gives dV/dy.  The trial a stage
accepts is then the trajectory it hands to stage t - 1; a stage that keeps
c_old hands over one simulation at a = 0.  So a stage update in a sweep
costs one tail call per trial step, or one for its hand-over, and one
backward walk.  The trajectory stage 0 keeps runs from the initial states
through stage T under the updated policy: it is the next iteration's batch
with its per-stage costs, and its mean value, stage 0's new objective, is
the next iteration's cost.  Iteration 0 takes its batch and cost the same
way, from one kept tail over every stage of the policy it starts from, so
every batch comes from a kept trajectory, whose tails guarded every row
entering a stage: a run checks only the final rows.  The last batch, that
of the returned policy, is returned with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CostSpec, TailEvaluator, Trajectory
from .dynamics import DivergenceError, LinearSystem, TrajectoryBatch, check_guard, rollout
from .kernels import (
    Dictionary,
    KernelPolicy,
    KernelSpec,
    StagePolicy,
    cross_gram,
    gram_matrix,
    median_length_scale,
)
from .seeding import substreams

# The stage root solve stops once |g(a)| <= ROOT_TOL * inner_tol * (1 + |J0|),
# so every accepted secant gap sits far inside the inner_tol callers check.
# It gives up once the bracket is narrower than BRACKET_RTOL relative, which
# on a smooth objective resolves g far below that stop rule already.
ROOT_TOL = 1.0e-6
# A stage tries its curvature's step first only when theta delta / 2 is at
# most this, so that step is at least 1 / (1 + CURVATURE_GATE) of the usual
# first trial: at larger delta the nearer root of g it aims at descends less.
CURVATURE_GATE = 4.0
BRACKET_RTOL = 1.0e-12
MAX_TRIALS = 60

__all__ = [
    "SolverConfig",
    "SingularGramError",
    "StageSolver",
    "IterationRecord",
    "StageUpdateResult",
    "PolicyIterationDiverged",
    "ProbeRow",
    "discrete_frechet_derivative",
    "solve_implicit_update",
    "policy_iteration",
    "run_policy_iteration",
    "build_dictionaries",
    "complexity_probe",
]


@dataclass
class SolverConfig:
    """Tuning knobs for the policy-iteration solver.

    delta_lr scales the implicit step: larger values permit longer steps per
    stage update.  ridge is a relative factor; the absolute shift added to a
    stage Gram solve is ridge times the mean Gram diagonal.  inner_tol is the
    tolerance callers check the solver's results against (per-stage secant
    gaps, the recorded cost's rises); the stage root solve stops once its
    secant gap is within ROOT_TOL * inner_tol * (1 + |objective|).
    """

    delta_lr: float = 1.0
    max_outer_iters: int = 100
    inner_tol: float = 1.0e-6
    mc_samples: int = 50
    dict_size: int = 30
    ridge: float = 1.0e-8
    kernel_family: str = "gaussian-rbf"
    length_scale: Optional[float] = None
    poly_degree: int = 2
    poly_offset: float = 1.0
    convergence_tol: float = 1.0e-8

    def __post_init__(self) -> None:
        if not self.delta_lr > 0:
            raise ValueError("delta_lr must be > 0")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be > 0")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if self.mc_samples < 1 or self.dict_size < 1:
            raise ValueError("mc_samples and dict_size must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")
        self._kernel(self.length_scale)

    def kernel_spec(self, reference_points=None) -> KernelSpec:
        """Resolve the kernel; a missing rbf length scale uses the median heuristic."""
        ls = self.length_scale
        if self.kernel_family == "gaussian-rbf" and ls is None:
            if reference_points is None:
                raise ValueError("length_scale unset and no reference points given")
            ls = median_length_scale(reference_points)
        return self._kernel(ls)

    def _kernel(self, length_scale: Optional[float]) -> KernelSpec:
        scale = {} if length_scale is None else {"length_scale": float(length_scale)}
        return KernelSpec(
            family=self.kernel_family, degree=self.poly_degree, offset=self.poly_offset, **scale
        )


@dataclass
class StageUpdateResult:
    """Outcome of one stage update, with descent and step diagnostics.

    Only what the update alone knows is stored; what follows from it is a
    property.  An update of stage t with N sampled rows and horizon T
    simulated tail_calls * N * (T - t) row-stages and walked back
    N * (T - t - 1) (complexity_probe).  value_step_sq and secant_gap stay
    stored: deriving them would take the step a, ||P||^2 and delta, three
    facts in place of two.
    """

    c_new: np.ndarray
    objective_old: float
    objective_new: float
    # tail re-simulations: one per trial step, one more for an
    # "inexact-secant" step, and one at c_old for the hand-over of a stage
    # that keeps it
    tail_calls: int
    value_step_sq: float  # ||pi_new - pi_old||_F^2 over the sampled states
    secant_gap: float  # |dJ + value_step_sq / delta|
    reason: str
    # the update's first trial step: "curvature", "usual", or "none" when it ran no trial
    first_trial: str
    # theta of the accepted step for an "ok" update, otherwise 0
    curvature: float
    # the kept trajectory from the sampled states through this stage under
    # c_new and the tail, and that tail; the sweep takes both, so that
    # records keep neither
    trajectory: Optional[Trajectory] = field(default=None, repr=False, compare=False)
    tail: Optional[TailEvaluator] = field(default=None, repr=False, compare=False)

    @property
    def accepted(self) -> bool:
        """An "ok" or "inexact-secant" update, whose c_new has objective_new < objective_old."""
        return self.reason in ("ok", "inexact-secant")

    @property
    def evals(self) -> int:
        """Objective evaluations: J0 and one per tail call."""
        return self.tail_calls + 1


@dataclass
class IterationRecord:
    """Per-outer-iteration history entry; its iteration is its index in the run's records."""

    cost: float  # batch cost of the policy entering this iteration
    stages: list  # one StageUpdateResult per stage, in stage order
    wall_time: float

    @property
    def cost_after(self) -> float:
        """Batch cost of the policy after the backward sweep: stage 0's new objective."""
        return self.stages[0].objective_new

    @property
    def stage_secant_gaps(self) -> np.ndarray:
        return np.array([r.secant_gap for r in self.stages])

    @property
    def total_step_sq(self) -> float:
        return float(np.sum([r.value_step_sq for r in self.stages]))


class PolicyIterationDiverged(RuntimeError):
    """Simulation blew up; carries the partial history collected so far."""

    def __init__(self, message: str, records: list, policy: Optional[KernelPolicy], cause=None):
        super().__init__(message)
        self.records = records
        self.policy = policy
        self.cause = cause


def discrete_frechet_derivative(pi_new, pi_old, J_new: float, J_old: float) -> np.ndarray:
    """Secant-type derivative: (pi_new - pi_old) (J_new - J_old) / ||pi_new - pi_old||^2.

    Returns the zero element when the policy values coincide.  For a nonzero
    difference the inner product with (pi_new - pi_old) reproduces
    J_new - J_old exactly.
    """
    new = np.asarray(pi_new, dtype=float)
    old = np.asarray(pi_old, dtype=float)
    if new.shape != old.shape:
        raise ValueError("policy value arrays must share a shape")
    d = new - old
    nrm2 = float(np.sum(d * d))
    if nrm2 == 0.0:
        return np.zeros_like(d)
    return d * ((float(J_new) - float(J_old)) / nrm2)


class SingularGramError(ValueError):
    """A stage Gram matrix stays singular after the configured ridge shift."""


class StageSolver:
    """The part of one stage's update that is fixed for a run (see the module docstring).

    K_inv is the inverse of the Gram matrix shifted by cfg.ridge times its
    mean diagonal, formed through the Cholesky factor as L^-T L^-1, so it
    is symmetric positive semidefinite and every direction -K_inv W
    descends.  It depends only on the dictionary, the kernel and the ridge,
    and is formed once per dictionary (Dictionary.compiled): a dictionary
    that several runs share, as the online windows' warm starts do, is
    factorised once.
    """

    def __init__(self, kernel, dictionary, cfg, spec, sys):
        self.kernel = kernel
        self.dictionary = dictionary
        self.cfg = cfg
        self.spec = spec
        self.sys = sys
        self.K_inv = dictionary.compiled(
            ("ridge-shifted Gram inverse", kernel, cfg.ridge), self._inverse
        )

    def _inverse(self) -> np.ndarray:
        K = gram_matrix(self.kernel, self.dictionary)
        mean_diag = float(np.mean(np.diag(K)))
        K += self.cfg.ridge * (mean_diag if mean_diag > 0 else 1.0) * np.eye(K.shape[0])
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError as exc:
            raise SingularGramError(
                f"Gram matrix for stage {self.dictionary.stage} is singular even after "
                f"the ridge shift (ridge {self.cfg.ridge:g})"
            ) from exc
        L_inv = np.linalg.inv(L)
        return L_inv.T @ L_inv


class _StageWorkspace:
    """Per-update quantities for improving one stage with its StageSolver.

    The cross-Gram matrix at the sampled states X and the old controls
    pi_old do not depend on the trial step, so they are computed once here.
    handed is the trajectory from the successor states under c_old, and
    stage_costs the stage's cost at X under c_old, per row (see the module
    docstring); a workspace that keeps c_old hands over a trajectory in
    turn (hand_over).

    On the line c_old + a V of a descent direction a trial is one call of
    the line's TailEvaluator (trials), from X through this stage and the
    tail, and one sum (trial).  The line numbers this stage one before the
    tail's first (0 for a tail from stage 0), which only labels divergences.
    """

    def __init__(
        self, solver: StageSolver, c_old, tail: TailEvaluator, states, handed, stage_costs
    ):
        self.states = np.atleast_2d(np.asarray(states, dtype=float))
        self.solver = solver
        self.c_old = np.asarray(c_old, dtype=float)
        self.tail = tail
        self.handed = handed
        self.stage_costs = stage_costs
        self.cross = cross_gram(solver.kernel, self.states, solver.dictionary)
        self.pi_old = self.cross @ self.c_old
        self.pi_R = self.pi_old @ solver.spec.R
        self.trials = None
        self.first_trial = "none"
        self.tail_calls = 0

    def _tail_values(self, **line):
        """One simulation of the line from the sampled states: (values, trajectory)."""
        self.tail_calls += 1
        return self.trials.values(self.states, kernel_values=self.cross, **line)

    def _line(self, direction=None) -> TailEvaluator:
        """The tail with this stage in front, at c_old, on the line along direction when given."""
        tail, solver = self.tail, self.solver
        t = max(tail.start_stage - 1, 0)
        # with a rest, a TailEvaluator reads only the policy's stage t
        stage = StagePolicy(solver.dictionary, self.c_old)
        policy = KernelPolicy(solver.kernel, [stage] * (t + 1 + tail.stage_count))
        return TailEvaluator(solver.sys, solver.spec, policy, t, tail, direction)

    def value_gradient(self):
        """(J0, G): the objective at c_old and its gradient with respect to the sampled controls.

        The continuation values come from the handed-over trajectory, and a
        reverse-mode pass over it gives dV/dy, so G = (2 pi_old R + dV/dy B)
        / N.  J0 is the mean stage cost c0 plus the mean continuation value.
        It simulates nothing.  A gradient that overflows leaves G non-finite.
        """
        N = self.states.shape[0]
        G = (2.0 * self.pi_R + self.handed.gradient() @ self.solver.sys.B) / N
        c0 = float(self.stage_costs.sum()) / N
        return c0 + float(self.handed.values.sum()) / N, G

    def descent_direction(self, G):
        """Gram-preconditioned direction from the value gradient G: (V, P, ||P||^2, <G, P>).

        It also compiles the line the trials run on (trials).
        """
        W = self.cross.T @ G
        V = -(self.solver.K_inv @ W)
        P = self.cross @ V
        p2 = float(np.vdot(P, P))
        s0 = float(np.vdot(G, P))
        self.V, self.p2, self.s0 = V, p2, s0
        self.trials = self._line(V)
        return V, P, p2, s0

    def trial(self, a):
        """(J(c_old + a V), trajectory) on the line; a diverging continuation scores +inf (no descent)."""
        try:
            values, path = self._tail_values(step=a)
        except DivergenceError:
            return np.inf, None
        return float(values.sum()) / values.shape[0], path

    def hand_over(self) -> Trajectory:
        """The trajectory from the states through this stage at c_old and the tail: one tail call.

        A DivergenceError propagates: the old coefficients' trajectory diverges.
        """
        if self.trials is None:
            self.trials = self._line()
        return self._tail_values()[1]


def _result(
    ws: _StageWorkspace, J0: float, reason: str, a=None, J1=None, path=None, curvature=0.0
) -> StageUpdateResult:
    """The stage's outcome; without a step a along the line c_old is kept.

    path is the trajectory of the accepted trial; a rejected step hands over
    the one at c_old.  With the trajectory goes the line's tail, settled at
    a.  The policy values move by a P, so value_step_sq is a^2 ||P||^2.
    """
    if a is not None:
        c_new = ws.c_old + a * ws.V
        value_sq = (a * a) * ws.p2
        gap = abs(J1 - J0 + value_sq / ws.solver.cfg.delta_lr)
    else:
        c_new, J1, a = ws.c_old.copy(), J0, 0.0
        path = ws.hand_over()
        value_sq = gap = 0.0
    return StageUpdateResult(
        c_new=c_new,
        objective_old=J0,
        objective_new=J1,
        tail_calls=ws.tail_calls,
        value_step_sq=value_sq,
        secant_gap=gap,
        reason=reason,
        first_trial=ws.first_trial,
        curvature=curvature,
        trajectory=path,
        tail=ws.trials.settle(a),
    )


def _next_trial(points) -> float:
    """The root of q interpolated through its latest points, nan when they do not define one.

    Three points with distinct q give the inverse quadratic interpolation;
    otherwise the secant through the last two is taken.
    """
    (a1, q1), (a2, q2) = points[-2:]
    if len(points) == 3:
        a0, q0 = points[0]
        d01, d02, d12 = q0 - q1, q0 - q2, q1 - q2
        if d01 * d02 != 0.0 and d01 * d12 != 0.0 and d02 * d12 != 0.0:
            return (
                a0 * q1 * q2 / (d01 * d02)
                - a1 * q0 * q2 / (d01 * d12)
                + a2 * q0 * q1 / (d02 * d12)
            )
    return a2 - q2 * (a2 - a1) / (q2 - q1) if q2 != q1 else np.nan


def _accept(ws: _StageWorkspace, J0: float, a: float, Ja: float, path) -> StageUpdateResult:
    """An "ok" result at a, which carries the curvature J shows at a."""
    curvature = 2.0 * (Ja - J0 - ws.s0 * a) / ((a * a) * ws.p2)
    return _result(ws, J0, "ok", a, Ja, path, curvature)


def _solve_secant(
    ws: _StageWorkspace, J0: float, G: np.ndarray, curvature: float = 0.0
) -> StageUpdateResult:
    """Root of g(a) = J(c_old + a V) - J0 + a^2 ||P||^2 / delta along the descent direction.

    The solve works on q(a) = g(a) / a.  Its value at 0 is the known slope
    s0 < 0, so the lower end of the bracket costs no objective evaluation,
    and when J is quadratic in a (linear dynamics and controls, quadratic
    tail) q is linear, so a secant step through two trials lands on the root.
    The second trial takes the secant through the two points of q so far, and
    every later one the inverse quadratic interpolation through the three
    latest (_next_trial).  The bracket is bisected instead when that point is
    not finite or not inside it; a trial whose continuation diverges scores
    +inf and shrinks the upper end.  The
    first trial with |g| <= ROOT_TOL * inner_tol * (1 + |J0|) and J < J0 is
    accepted.  When none is found, the descending trial with the smallest |g|
    is accepted as "inexact-secant", simulated once more for its trajectory
    (only the trial in hand keeps one), and when no trial descends the old
    coefficients are kept.

    The first trial is -s0 delta / ||P||^2, or with curvature theta > 0 and
    theta delta / 2 <= CURVATURE_GATE the shorter step theta predicts.  A
    trial short of -s0 delta / ||P||^2 with no upper end on the bracket is
    followed by the interpolated root, capped at -s0 delta / ||P||^2; any
    other trial with no upper end by twice itself.  first_trial records
    which first trial ran.
    """
    _, _, p2, s0 = ws.descent_direction(G)
    scale = 1.0 + abs(J0)
    delta = ws.solver.cfg.delta_lr
    tol = ROOT_TOL * ws.solver.cfg.inner_tol * scale
    # the first trial is a = -s0 delta / p2, where g(a) >= 0 whenever J is
    # convex along V; to first order no step in (0, a] moves J by more than
    # -s0 a = s0^2 delta / p2, so a stage below tol there has nothing to gain
    if not (np.isfinite(p2) and p2 > 1e-300 and s0 < -1e-14 * scale and s0 * s0 * delta > tol * p2):
        return _result(ws, J0, "stationary")
    a = usual = -s0 * delta / p2
    ws.first_trial = "usual"
    if curvature > 0.0 and 0.5 * curvature * delta <= CURVATURE_GATE:
        a = -s0 / (p2 * (0.5 * curvature + 1.0 / delta))
        ws.first_trial = "curvature"
    lo, hi = 0.0, np.inf
    points = [(0.0, s0)]  # the latest points (a, q(a)), oldest first
    best = (np.inf, None, J0)
    for _ in range(MAX_TRIALS):
        Ja, path = ws.trial(a)
        g = Ja - J0 + (a * a) * p2 / delta
        if Ja < J0:
            if abs(g) <= tol:
                return _accept(ws, J0, a, Ja, path)
            if abs(g) < best[0]:
                best = (abs(g), a, Ja)
        path = None  # freed before the next trial: only the trial in hand keeps its blocks
        q = g / a
        points = points[-2:] + [(a, q)]
        if q < 0:
            lo = a
        else:  # includes +inf and nan: a diverged trial shrinks the bracket
            hi = a
        if np.isinf(hi):
            a_next = 2.0 * a
            if a < usual:
                # short of the usual first trial: aim at g's root, no further than that trial
                a_next = _next_trial(points)
                if not a < a_next < usual:
                    a_next = usual
        elif lo == 0.0 and -s0 * hi <= tol:
            break  # the bracket holds no step that moves J by more than tol
        elif hi - lo <= BRACKET_RTOL * hi:
            break  # J is too rough along V to resolve the root any further
        else:
            a_next = _next_trial(points)
            if not lo < a_next < hi:
                a_next = 0.5 * (lo + hi)
        a = a_next
    _, a, Ja = best
    if a is None:
        return _result(ws, J0, "no-descent")
    # only one trial's trajectory is kept at a time: simulate the best again
    Ja, path = ws.trial(a)
    return _result(ws, J0, "inexact-secant", a, Ja, path)


def solve_implicit_update(
    solver: StageSolver,
    c_old: np.ndarray,
    tail: TailEvaluator,
    states_at_t,
    handed: Trajectory,
    stage_costs: np.ndarray,
    curvature: float = 0.0,
) -> StageUpdateResult:
    """Improve a stage's coefficients against the already-updated tail.

    Guarantees objective_new <= objective_old: when the inner solver cannot
    find a descending step the old coefficients are returned unchanged.
    tail re-simulates the continuation from the successor states (a
    TailEvaluator over the updated later stages), handed is that tail's
    trajectory from the successor states under c_old, and stage_costs are
    the stage's costs at states_at_t under c_old, per row: what the sweep
    hands over (see the module docstring).  curvature is the theta the
    first trial may use.

    The objective at c_old, J0, and its gradient come from the handed
    trajectory and one reverse-mode pass over it
    (_StageWorkspace.value_gradient); a non-finite gradient keeps c_old as
    "gradient-diverged".  A trial step whose continuation diverges counts
    as no descent and the step shrinks.  The result carries the trajectory
    from states_at_t through this stage under c_new and the tail
    (trajectory): the accepted trial's or, when c_old is kept, one
    simulation at c_old, whose DivergenceError propagates.  Its curvature
    is the accepted step's theta when the update is "ok", and 0 otherwise.
    """
    ws = _StageWorkspace(solver, c_old, tail, states_at_t, handed, stage_costs)
    J0, G = ws.value_gradient()
    if not np.isfinite(G).all():
        return _result(ws, J0, "gradient-diverged")
    return _solve_secant(ws, J0, G, curvature)


def build_dictionaries(
    states: np.ndarray, horizon: int, dict_size: int, rng: np.random.Generator
) -> list:
    """Per-stage anchor sets subsampled without replacement from rollout states.

    states has shape (N, T+1, n); duplicates within a stage are dropped so the
    Gram matrices stay nonsingular.
    """
    dicts = []
    N = states.shape[0]
    for t in range(horizon):
        m = min(dict_size, N)
        idx = np.sort(rng.choice(N, size=m, replace=False))
        pts = np.unique(states[idx, t, :], axis=0)
        dicts.append(Dictionary(points=pts, stage=t))
    return dicts


def run_policy_iteration(
    sys: LinearSystem,
    spec: CostSpec,
    horizon: int,
    x0_batch,
    cfg: SolverConfig,
    policy: Optional[KernelPolicy] = None,
    dict_rng: Optional[np.random.Generator] = None,
):
    """Iterate backward stage improvement from the batch simulated under the policy.

    When a policy is given it is improved in place from its warm state, and
    every stage must carry its dictionary.  Otherwise a zero policy is built
    over dictionaries drawn with dict_rng (default_rng(0) when not given) from
    a zero-control rollout of the batch.  Dictionaries stay fixed for the
    call, so each stage's StageSolver is built once, before the first
    iteration.  Iteration 0 starts from the trajectory of one tail over
    every stage of the policy, each later one from the trajectory its
    predecessor's sweep kept (see the module docstring), and within a sweep
    a stage without a curvature borrows the one the stage after it
    returned; each batch adds only its final rows to the guard of the
    tails that made it.  Returns (policy, records, batch): batch is the
    TrajectoryBatch of the returned policy from the rows of x0_batch, the
    states of the last kept trajectory over every stage, whether the run
    stopped at max_outer_iters or at convergence_tol; its initial states
    are x0_batch bit for bit.  A DivergenceError anywhere in the run raises
    PolicyIterationDiverged with the partial history, the policy (None when
    the zero-control rollout diverges) and the error as cause; a
    SingularGramError, or a ValueError for a policy of another horizon,
    escapes as it is.
    """
    X0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    records: list = []
    try:
        if policy is None:
            if dict_rng is None:
                dict_rng = np.random.default_rng(0)
            drift = rollout(sys, X0, horizon)
            dicts = build_dictionaries(drift.states, horizon, cfg.dict_size, dict_rng)
            policy = KernelPolicy(
                cfg.kernel_spec(reference_points=X0), [StagePolicy.zero(sys.m, d) for d in dicts]
            )
        elif policy.horizon != horizon:
            raise ValueError("policy horizon disagrees with the requested horizon")
        solvers = [StageSolver(policy.kernel, st.dictionary, cfg, spec, sys) for st in policy.stages]
        terminal = TailEvaluator(sys, spec, policy, horizon)
        tail = terminal
        for t in range(horizon - 1, -1, -1):
            tail = TailEvaluator(sys, spec, policy, t, tail)

        handed = tail.values(X0)[1]
        states, costs = handed.states(), handed.stage_costs
        check_guard(states[:, horizon], horizon)
        cost_k = float(handed.values.mean())
        theta = [0.0] * (horizon + 1)  # each stage's last curvature; none past the last stage
        for _ in range(cfg.max_outer_iters):
            t0 = time.perf_counter()
            stage_results = [None] * horizon
            tail, handed = terminal, handed.terminal()
            for t in range(horizon - 1, -1, -1):
                res = solve_implicit_update(
                    solvers[t],
                    policy.stages[t].coefficients,
                    tail,
                    states[:, t],
                    handed,
                    costs[t],
                    theta[t] or theta[t + 1],
                )
                theta[t] = res.curvature
                handed, tail, res.trajectory, res.tail = res.trajectory, res.tail, None, None
                policy.stages[t] = StagePolicy(solvers[t].dictionary, res.c_new)
                stage_results[t] = res
            wall = time.perf_counter() - t0

            records.append(IterationRecord(cost=cost_k, stages=stage_results, wall_time=wall))
            states, costs = handed.states(), handed.stage_costs
            check_guard(states[:, horizon], horizon)
            if cfg.convergence_tol > 0:
                if records[-1].total_step_sq < cfg.convergence_tol * (1.0 + abs(cost_k)):
                    break
            cost_k = records[-1].cost_after
    except DivergenceError as exc:
        raise PolicyIterationDiverged(
            f"simulation diverged at iteration {len(records)}: {exc}", records, policy, exc
        ) from exc
    return policy, records, TrajectoryBatch(states)


def policy_iteration(
    sys: LinearSystem,
    spec: CostSpec,
    p0_sampler: Callable[[np.random.Generator, int], np.ndarray],
    cfg: SolverConfig,
    horizon: int,
    seed: int = 0,
):
    """Public entry point: sample the initial-state batch, then iterate.

    p0_sampler(rng, N) must return an (N, n) batch.  The batch is drawn once
    per run from a dedicated substream of seed and reused across iterations
    for reproducibility; the dictionaries come from a second substream.
    Returns run_policy_iteration's (policy, records, batch); the drawn
    initial states are batch.states[:, 0].
    """
    rngs = substreams(seed, ("initial-states", "dictionary"))
    X0 = p0_sampler(rngs["initial-states"], cfg.mc_samples)
    return run_policy_iteration(sys, spec, horizon, X0, cfg, dict_rng=rngs["dictionary"])


@dataclass
class ProbeRow:
    mc_samples: int
    dict_size: int
    horizon: int
    seconds_per_iteration: float
    # rows times stages re-simulated or walked back per timed iteration
    row_stages_per_iteration: float


def complexity_probe(points: Sequence[tuple], iterations: int = 2, seed: int = 0) -> list:
    """Per-iteration times and row-stages of the solver over a (samples, anchors, horizon) grid.

    Runs a small two-vehicle crossing instance at each grid point and reports
    the mean sweep time, skipping the first iteration (it pays one-off setup
    costs), and the mean row-stages those sweeps re-simulated or walked back,
    a count that does not depend on the machine: the update of stage t
    simulates its N rows through T - t stages once per tail call and walks
    them back once over the T - t - 1 stages after it.  Timing rows are
    informational; no hard bounds are asserted here.
    """
    from .intersection import ScenarioConfig, build_intersection, sample_initial_states

    rows = []
    for (n_samples, dict_size, horizon) in points:
        scen_cfg = ScenarioConfig(
            n_cav=2,
            n_hdv=0,
            horizon=int(horizon),
            entry_offsets=(12.0, 14.0),
            position_jitter=1.0,
            speed_range=(4.0, 6.0),
        )
        scenario, learner, _, cost = build_intersection(scen_cfg)
        cfg = SolverConfig(
            delta_lr=float(n_samples),
            max_outer_iters=int(iterations) + 1,
            mc_samples=int(n_samples),
            dict_size=int(dict_size),
            convergence_tol=0.0,
        )
        _, records, _ = policy_iteration(
            learner,
            cost,
            lambda rng, N: sample_initial_states(scenario, rng, N),
            cfg,
            horizon=int(horizon),
            seed=seed,
        )
        timed = records[1:] if len(records) > 1 else records
        N, T = cfg.mc_samples, int(horizon)
        row_stages = [
            N * sum(s.tail_calls * (T - t) + T - t - 1 for t, s in enumerate(r.stages))
            for r in timed
        ]
        rows.append(
            ProbeRow(
                mc_samples=int(n_samples),
                dict_size=int(dict_size),
                horizon=int(horizon),
                seconds_per_iteration=float(np.mean([r.wall_time for r in timed])),
                row_stages_per_iteration=float(np.mean(row_stages)),
            )
        )
    return rows
