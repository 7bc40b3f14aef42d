"""Model-free control loop: excitation and identification, then receding-horizon planning.

The loop runs in two strictly sequential phases.  During the first
ident_steps real steps a zero base control plus Gaussian excitation is
applied and the parameter estimate is updated recursively from the observed
transitions.  Afterwards the estimate is frozen and every real step plans a
short window on the identified model from the single observed state, applies
only the first control of the candidate sequence, and shifts the candidate
one stage forward as the next warm start.

Every window stage carries a dictionary.  A stage that enters a window
without a plan, whether in the first window or appended at the end of a
shifted one, starts from zero coefficients and one anchor: the state the
model predicts there under the stages before it (shift_warm_start).  The
excitation check reads the information the estimate used over all
identification steps (rls.pe_check); it is reported, not acted on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .costs import CostSpec
from .dynamics import DivergenceError, LinearSystem, check_guard, rollout, step as dyn_step
from .intersection import min_pairwise_distance, sample_initial_states
from .kernels import Dictionary, KernelPolicy, KernelSpec, StagePolicy, eval_policy
from .offline import PolicyIterationDiverged, SolverConfig, run_policy_iteration
from .rls import pe_check, rls_init, rls_update, estimate
from .seeding import substreams

__all__ = [
    "OnlineSection",
    "OnlineConfig",
    "OnlineStepRecord",
    "OnlineLog",
    "WindowResult",
    "excitation_input",
    "plan_window",
    "shift_warm_start",
    "run_online",
]


@dataclass
class OnlineSection:
    """The online-loop settings a run configuration file sets."""

    window: int = 4
    ident_steps: int = 40
    sigma_excitation: float = 1.5
    m0_scale: float = 1.0e5
    forgetting: float = 1.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.ident_steps < 0:
            raise ValueError("ident_steps must be >= 0")
        if self.sigma_excitation < 0:
            raise ValueError("sigma_excitation must be >= 0")
        if not self.m0_scale > 0:
            raise ValueError("m0_scale must be > 0")
        if not 0 < self.forgetting <= 1:
            raise ValueError("forgetting must lie in (0, 1]")


@dataclass
class OnlineConfig(OnlineSection):
    """Settings for the online loop: the file's section plus the run's horizon, solver and seed."""

    horizon: int = 50
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.window > self.horizon:
            raise ValueError("window must be <= horizon")
        if self.ident_steps >= self.horizon:
            raise ValueError("ident_steps must be < horizon")


def excitation_input(rng: np.random.Generator, sigma_exc: float, base):
    """Base control plus zero-mean Gaussian excitation on every channel."""
    base = np.asarray(base, dtype=float).copy()
    if sigma_exc < 0:
        raise ValueError("sigma_exc must be >= 0")
    if sigma_exc == 0:
        return base
    return base + sigma_exc * rng.standard_normal(base.shape)


@dataclass
class WindowResult:
    stages: list  # StagePolicy for t = s .. window_end - 1
    window_end: int
    cost_before: float
    cost_after: float
    step_sq: float
    rejected: bool = False


def plan_window(
    x_s,
    model: LinearSystem,
    warm_start: list,
    kernel: KernelSpec,
    s: int,
    cfg: OnlineConfig,
    spec: CostSpec,
) -> WindowResult:
    """Improve the window policies on the identified model from the observed state.

    The window covers t = s .. min(horizon, s + window) - 1 and is solved by
    the same backward stage improvement as the full-horizon routine, with the
    single state x_s as the sample batch, so there is no Monte Carlo
    averaging.  warm_start holds one StagePolicy per window stage, each with
    its dictionary; the first window's comes from shift_warm_start([], s - 1,
    x_s, ...).  The returned candidate never costs more than the warm start;
    if the predicted simulation diverges the warm start itself is returned.
    """
    x_s = np.asarray(x_s, dtype=float).ravel()
    end = min(cfg.horizon, s + cfg.window)
    h = end - s
    if h < 1:
        raise ValueError("empty planning window")
    if len(warm_start) != h:
        raise ValueError(f"warm start covers {len(warm_start)} stages, window needs {h}")
    stages = [StagePolicy(st.dictionary, st.coefficients.copy()) for st in warm_start]
    try:
        policy, records, _ = run_policy_iteration(
            model, spec, h, x_s[None, :], cfg.solver, policy=KernelPolicy(kernel, stages)
        )
    except PolicyIterationDiverged:
        return WindowResult(
            stages=warm_start,
            window_end=end,
            cost_before=math.inf,
            cost_after=math.inf,
            step_sq=0.0,
            rejected=True,
        )
    return WindowResult(
        stages=policy.stages,
        window_end=end,
        cost_before=records[0].cost,
        cost_after=records[-1].cost_after,
        step_sq=float(sum(r.total_step_sq for r in records)),
    )


def shift_warm_start(
    stages: list,
    s: int,
    x_next,
    model: LinearSystem,
    kernel: KernelSpec,
    cfg: OnlineConfig,
) -> list:
    """Drop the executed stage and extend the window if its end moved.

    Overlapping stages keep their dictionaries and coefficient bits.  A newly
    appended terminal stage starts from zero coefficients with a fresh
    single-point dictionary at the state the shifted candidate predicts
    there.  A prediction past the state guard (dynamics.check_guard) is not
    followed: later anchors stay at the last state inside it, and the
    window's own simulation then crosses the guard and rejects the window.
    With no stages and s one before the first planning step, every stage is
    new: this builds the first window's warm start.
    """
    x_next = np.asarray(x_next, dtype=float).ravel()
    new_end = min(cfg.horizon, s + 1 + cfg.window)
    needed = new_end - (s + 1)
    shifted = [StagePolicy(st.dictionary, st.coefficients.copy()) for st in stages[1:]]
    if len(shifted) >= needed:
        return shifted[:needed]
    x_hat = x_next
    for j in range(needed):
        if j == len(shifted):
            anchor = Dictionary(points=x_hat[None, :], stage=s + 1 + j)
            shifted.append(StagePolicy.zero(model.m, anchor))
        pol = KernelPolicy(kernel, [shifted[j]])
        u = eval_policy(pol, 0, x_hat)
        x_pred = model.A @ x_hat + model.B @ u
        try:
            check_guard(x_pred[None, :], s + 2 + j, "predicted anchor")
        except DivergenceError:
            continue
        x_hat = x_pred
    return shifted


@dataclass
class OnlineStepRecord:
    step: int
    phase: str  # "identify" | "plan"
    residual_norm: Optional[float] = None
    param_error: Optional[float] = None
    window_cost_before: Optional[float] = None
    window_cost_after: Optional[float] = None
    window_step_sq: Optional[float] = None
    window_rejected: bool = False


@dataclass
class OnlineLog:
    """Closed-loop trace of one online run."""

    steps: list
    states: np.ndarray  # (S+1, n) observed states including the final one
    controls: np.ndarray  # (S, m)
    diverged_step: Optional[int]  # the step whose next state crossed the guard, if any
    pe_result: object
    min_distance: float
    min_distance_post_ident: float
    max_state_norm: float

    @property
    def diverged(self) -> bool:
        return self.diverged_step is not None

    @property
    def planning_steps(self) -> list:
        return [r for r in self.steps if r.phase == "plan"]

    @property
    def identification_steps(self) -> list:
        return [r for r in self.steps if r.phase == "identify"]


def run_online(
    plant: LinearSystem,
    cfg: OnlineConfig,
    spec: CostSpec,
    scenario=None,
    theta0: Optional[np.ndarray] = None,
    x0=None,
) -> OnlineLog:
    """Execute the full identify-then-plan loop against the plant.

    The plant is stepped with dynamics.step.  Its matrices are read only to
    log the per-step parameter error of the estimate during identification;
    the planner sees only the recursive least-squares estimate.  Passing
    ident_steps=0 together with theta0 equal to the true stacked matrices
    skips identification and runs pure receding-horizon control.
    """
    n, m = plant.n, plant.m
    truth = np.hstack([plant.A, plant.B])

    rngs = substreams(cfg.seed, ("initial-state", "excitation"))
    if x0 is None:
        if scenario is None:
            raise ValueError("need either x0 or a scenario to sample it from")
        x0 = sample_initial_states(scenario, rngs["initial-state"], 1)[0]
    x = np.asarray(x0, dtype=float).ravel()

    rls = rls_init(n, m, lam=cfg.forgetting, M0_scale=cfg.m0_scale, theta0=theta0)
    steps: list = []
    states = [x.copy()]
    controls: list = []
    diverged_step = None

    for s in range(cfg.ident_steps):
        u = excitation_input(rngs["excitation"], cfg.sigma_excitation, np.zeros(m))
        try:
            x_next = dyn_step(plant, x, u)
        except DivergenceError:
            diverged_step = s
            break
        rls, resid = rls_update(rls, x, u, x_next)
        steps.append(
            OnlineStepRecord(
                step=s,
                phase="identify",
                residual_norm=float(np.linalg.norm(resid)),
                param_error=float(np.linalg.norm(truth - rls.theta_hat)),
            )
        )
        controls.append(u)
        states.append(x_next.copy())
        x = x_next

    A_hat, B_hat = estimate(rls)
    model = LinearSystem(A_hat, B_hat)

    kernel = _resolve_online_kernel(cfg, model, x)

    if diverged_step is None:
        warm = shift_warm_start([], cfg.ident_steps - 1, x, model, kernel, cfg)
        for s in range(cfg.ident_steps, cfg.horizon):
            result = plan_window(x, model, warm, kernel, s, cfg, spec)
            u = eval_policy(KernelPolicy(kernel, [result.stages[0]]), 0, x)
            try:
                x_next = dyn_step(plant, x, u)
            except DivergenceError:
                diverged_step = s
                break
            steps.append(
                OnlineStepRecord(
                    step=s,
                    phase="plan",
                    window_cost_before=result.cost_before,
                    window_cost_after=result.cost_after,
                    window_step_sq=result.step_sq,
                    window_rejected=result.rejected,
                )
            )
            controls.append(u)
            states.append(x_next.copy())
            if s + 1 < cfg.horizon:
                warm = shift_warm_start(result.stages, s, x_next, model, kernel, cfg)
            x = x_next

    states_arr = np.array(states)
    controls_arr = np.array(controls) if controls else np.zeros((0, m))
    if scenario is None:
        d_all = d_post = math.inf
    else:
        d_all = min_pairwise_distance(states_arr, scenario)
        d_post = min_pairwise_distance(states_arr[cfg.ident_steps :], scenario)
    return OnlineLog(
        steps=steps,
        states=states_arr,
        controls=controls_arr,
        diverged_step=diverged_step,
        pe_result=pe_check(rls),
        min_distance=d_all,
        min_distance_post_ident=d_post,
        max_state_norm=float(np.max(np.linalg.norm(states_arr, axis=1))),
    )


def _resolve_online_kernel(cfg: OnlineConfig, model: LinearSystem, x: np.ndarray) -> KernelSpec:
    """Kernel for the window policies; the median heuristic falls back to the
    drift trajectory predicted by the identified model from the current state."""
    if cfg.solver.kernel_family != "gaussian-rbf" or cfg.solver.length_scale is not None:
        return cfg.solver.kernel_spec()
    steps_left = max(cfg.horizon - cfg.ident_steps, 1)
    try:
        ref = rollout(model, x[None, :], steps_left).states[0]
    except DivergenceError:
        ref = x[None, :]
    return cfg.solver.kernel_spec(reference_points=ref)
