"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

The offline and online intersection runs use the shipped configuration files
verbatim; run pytest with -s (or read the captured output) to see the
per-criterion lines.  The full module takes several minutes, dominated by the
260-iteration offline run.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from kernelpi.cli import oracle_compare, run_offline_mode, run_online_mode
from kernelpi.config import load_config
from kernelpi.costs import CostSpec, empirical_stage_objective, terminal_cost
from kernelpi.dynamics import LinearSystem, STATE_GUARD, rollout
from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states
from kernelpi.kernels import Dictionary, KernelSpec, cross_gram
from kernelpi.offline import SolverConfig, complexity_probe, discrete_frechet_derivative, run_policy_iteration
from kernelpi.online import OnlineConfig, run_online
from kernelpi.rls import rls_init, rls_update

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

OFFLINE_CONFIG = CONFIGS / "offline_intersection.yaml"
ONLINE_CONFIG = CONFIGS / "online_intersection.yaml"
ORACLE_CONFIG = CONFIGS / "oracle_lqr.yaml"


@pytest.fixture
def verdict(capfd):
    """Prints one [ACk] PASS/FAIL line per criterion, bypassing capture."""

    def _verdict(tag: str, ok: bool, detail: str) -> bool:
        line = f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line)
        return ok

    return _verdict


@pytest.fixture(scope="module")
def offline_run():
    cfg = load_config(OFFLINE_CONFIG)
    scenario, policy, records, batch = run_offline_mode(cfg)
    return cfg, records


@pytest.fixture(scope="module")
def online_run():
    cfg = load_config(ONLINE_CONFIG)
    scenario, log = run_online_mode(cfg)
    return cfg, scenario, log


def test_ac1_offline_monotone_descent_and_plateau(offline_run, verdict):
    cfg, records = offline_run
    costs = [r.cost for r in records] + [records[-1].cost_after]
    slack = cfg.solver.inner_tol * cfg.scenario.horizon
    monotone = all(b <= a + slack for a, b in zip(costs, costs[1:]))
    enough = len(records) >= 250
    tail = costs[-20:]
    plateau = (max(tail) - min(tail)) / max(1.0, abs(costs[-1])) < 1e-4
    ok = verdict(
        "AC1",
        monotone and enough and plateau,
        f"{len(records)} iterations, cost {costs[0]:.4f} -> {costs[-1]:.4f}, "
        f"monotone={monotone} (slack {slack:g}), plateau={plateau}",
    )
    assert ok


def test_ac2_lqr_oracle_equivalence(verdict):
    cfg = load_config(ORACLE_CONFIG)
    report = oracle_compare(cfg)
    gap_ok = report.relative_gap <= 0.02
    scalar_ok = report.scalar_gain_error is not None and report.scalar_gain_error <= 1e-3
    ok = verdict(
        "AC2",
        gap_ok and scalar_ok,
        f"cost gap {report.relative_gap:.3%} (bound 2%), scalar gain "
        f"{report.scalar_gain:.6f} (target -0.5 +/- 1e-3)",
    )
    assert ok


def test_ac3_secant_and_finite_difference_correctness(verdict):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        old = rng.normal(size=shape)
        new = old + rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2)
        J_old, J_new = rng.normal(size=2) * 10.0
        D = discrete_frechet_derivative(new, old, J_new, J_old)
        gap = abs(float(np.sum((new - old) * D)) - (J_new - J_old))
        worst = max(worst, gap / max(1.0, abs(J_new - J_old)))
    secant_ok = worst <= 1e-12

    # first-order agreement with the analytic directional slope of a stage
    # objective as the perturbation scale shrinks from 1e-3 to 1e-6
    sys_ = LinearSystem(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [0.1]])
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_F=np.eye(2))
    states = rng.normal(size=(6, 2))
    kernel = KernelSpec(family="gaussian-rbf", length_scale=1.5)
    d = Dictionary(points=rng.normal(size=(3, 2)))
    cross = cross_gram(kernel, states, d)
    tail = lambda Y: terminal_cost(Y, spec)
    C = rng.normal(size=(3, 1))
    direction = rng.normal(size=(3, 1))
    P = cross @ direction
    Pi = cross @ C
    Y = states @ sys_.A.T + Pi @ sys_.B.T
    G = (2.0 * Pi @ spec.R + 2.0 * Y @ spec.Q_F @ sys_.B) / states.shape[0]
    exact = float(np.sum(G * P))
    J0 = empirical_stage_objective(C, states, tail, sys_, spec, cross)
    errors = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        a = eps / np.linalg.norm(P)
        J1 = empirical_stage_objective(C + a * direction, states, tail, sys_, spec, cross)
        D = discrete_frechet_derivative(Pi + a * P, Pi, J1, J0)
        slope = float(np.sum(D * P))
        errors.append(abs(slope - exact))
    fd_ok = errors[-1] <= 3e-3 * errors[0] + 1e-12 and all(
        b <= 2.0 * a for a, b in zip(errors, errors[1:])
    )
    ok = verdict(
        "AC3",
        secant_ok and fd_ok,
        f"worst secant gap {worst:.2e} (bound 1e-12), slope errors "
        + "/".join(f"{e:.1e}" for e in errors),
    )
    assert ok


def test_ac4_rls_convergence_and_covariance_identity(verdict):
    # compact-scale mixed-traffic plant; sigma = 1.5 excitation, 50 steps
    scen = ScenarioConfig(
        n_cav=2,
        n_hdv=1,
        horizon=55,
        dt=0.4,
        intersection_length=1.5,
        lane_offset=0.3,
        entry_offsets=(2.0, 2.4, 2.8),
        desired_speeds=(1.0, 1.0, 1.0),
        position_jitter=0.4,
        speed_range=(0.5, 2.0),
        hdv_gain=0.8,
    )
    scenario, _, plant, _ = build_intersection(scen)
    truth = np.hstack([plant.A, plant.B])
    rng = np.random.default_rng(0)
    x = sample_initial_states(scenario, rng, 1)[0]
    state = rls_init(plant.n, plant.m, lam=1.0, M0_scale=1e6)
    worst_gap = 0.0
    errors = []
    for s in range(50):
        u = 1.5 * rng.standard_normal(plant.m)
        x_next = plant.A @ x + plant.B @ u
        phi = np.concatenate([x, u])
        Minv_before = np.linalg.inv(state.M)
        state, _ = rls_update(state, x, u, x_next)
        Minv_after = np.linalg.inv(state.M)
        gap = np.linalg.norm(Minv_after - Minv_before - np.outer(phi, phi))
        worst_gap = max(worst_gap, gap / max(1.0, np.linalg.norm(Minv_before) + phi @ phi))
        errors.append(float(np.linalg.norm(truth - state.theta_hat)))
        x = x_next
    err_ok = errors[-1] < 1e-6
    gap_ok = worst_gap <= 1e-8
    first_hit = next((s + 1 for s, e in enumerate(errors) if e < 1e-6), None)
    ok = verdict(
        "AC4",
        err_ok and gap_ok,
        f"parameter error {errors[-1]:.2e} after 50 steps (first < 1e-6 at step {first_hit}), "
        f"worst identity gap {worst_gap:.2e} (bound 1e-8)",
    )
    assert ok


def test_ac5_online_window_descent_and_boundedness(online_run, verdict):
    cfg, scenario, log = online_run
    tol = cfg.solver.inner_tol
    descent = all(
        r.window_cost_after <= r.window_cost_before + tol for r in log.planning_steps
    )
    bounded = log.max_state_norm < STATE_GUARD and not log.diverged
    ok = verdict(
        "AC5",
        descent and bounded,
        f"{len(log.planning_steps)} window solves all descending={descent}, "
        f"max state norm {log.max_state_norm:.1f} < guard {STATE_GUARD:g}",
    )
    assert ok


def test_ac6_online_safety_distance(online_run, verdict):
    cfg, scenario, log = online_run
    d_safe = cfg.scenario.safety_distance
    ok = verdict(
        "AC6",
        log.min_distance_post_ident > d_safe,
        f"config {ONLINE_CONFIG.name}: min pairwise distance after identification "
        f"{log.min_distance_post_ident:.3f} m > safety distance {d_safe:.1f} m",
    )
    assert ok


def test_ac7_receding_horizon_consistency(verdict):
    sys_ = LinearSystem(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.005], [0.1]])
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_F=np.eye(2))
    solver = SolverConfig(
        delta_lr=1.0,
        max_outer_iters=300,
        mc_samples=1,
        dict_size=1,
        kernel_family="linear",
        convergence_tol=1e-13,
    )
    cfg = OnlineConfig(
        horizon=5, window=5, ident_steps=0, sigma_excitation=0.0, solver=solver, seed=5
    )
    x0 = np.array([1.0, 0.5])
    log = run_online(sys_, cfg, spec, theta0=np.hstack([sys_.A, sys_.B]), x0=x0)
    policy, _ = run_policy_iteration(sys_, spec, 5, x0[None, :], solver)
    batch = rollout(sys_, policy, x0[None, :])
    diff = float(np.abs(log.controls - batch.controls[0]).max())
    ok = verdict(
        "AC7",
        diff <= 1e-6,
        f"max control deviation between online (H=T) and offline solves {diff:.2e} (bound 1e-6)",
    )
    assert ok


def test_ac8_complexity_scaling_smoke(verdict):
    # sample counts large enough that per-sample arithmetic, not call
    # dispatch, dominates the iteration time
    base = (256, 8, 6)
    points = [base, (512, 8, 6), (256, 16, 6), (256, 8, 12)]
    rows = complexity_probe(points, iterations=3, seed=0)
    assert len(rows) == 4 and all(r.seconds_per_iteration > 0 for r in rows)
    t0, tN, tM, tT = (r.seconds_per_iteration for r in rows)
    n_factor = tN / t0
    t_factor = tT / t0
    # the row-stage ratios are deterministic: they tell whether a time ratio
    # outside its band comes from the work or from the machine
    w0, wN, wM, wT = (r.row_stages_per_iteration for r in rows)
    detail = (
        f"doubling samples: x{n_factor:.2f} (band [1.5, 3]), row-stages x{wN / w0:.2f}; "
        f"doubling horizon: x{t_factor:.2f} (superlinear > 2), row-stages x{wT / w0:.2f}"
    )
    if not 1.5 <= n_factor <= 3.0:
        warnings.warn(f"sample-count scaling outside the loose band: {detail}")
    if not t_factor > 2.0:
        warnings.warn(f"horizon scaling not clearly superlinear: {detail}")
    verdict("AC8", True, detail + " (informational)")
