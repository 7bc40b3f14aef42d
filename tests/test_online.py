import numpy as np
import pytest

from kernelpi.costs import CostSpec
from kernelpi.dynamics import STATE_GUARD, LinearSystem, rollout
from kernelpi.intersection import ScenarioConfig, build_intersection, min_pairwise_distance
from kernelpi.kernels import KernelPolicy, KernelSpec, eval_policy
from kernelpi.offline import SolverConfig, build_dictionaries, run_policy_iteration
from kernelpi.online import (
    OnlineConfig,
    excitation_input,
    plan_window,
    run_online,
    shift_warm_start,
)
from kernelpi.riccati import lqr_cost, riccati_backward
from reference import policy_rollout


def double_integrator():
    return LinearSystem(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.005], [0.1]])


def lq_spec(n, m):
    return CostSpec(Q=np.eye(n), R=np.eye(m), Q_F=np.eye(n))


def first_warm_start(x, s, sys_, kernel, cfg):
    """The first window's stages: one zero-coefficient anchor per stage on the drift from x."""
    return shift_warm_start([], s - 1, x, sys_, kernel, cfg)


def linear_solver(**kw):
    base = dict(
        delta_lr=1.0,
        max_outer_iters=60,
        mc_samples=1,
        dict_size=1,
        kernel_family="linear",
        convergence_tol=1e-13,
    )
    base.update(kw)
    return SolverConfig(**base)


def test_excitation_zero_sigma_returns_base():
    rng = np.random.default_rng(0)
    base = np.array([1.0, -2.0])
    out = excitation_input(rng, 0.0, base)
    np.testing.assert_array_equal(out, base)


def test_excitation_sample_standard_deviation():
    rng = np.random.default_rng(1)
    draws = np.array([excitation_input(rng, 1.5, np.zeros(1))[0] for _ in range(10_000)])
    assert 1.4 <= draws.std() <= 1.6
    assert abs(draws.mean()) < 0.05


def test_excitation_rejects_negative_sigma():
    with pytest.raises(ValueError):
        excitation_input(np.random.default_rng(0), -1.0, np.zeros(1))


def test_online_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(horizon=10, window=0)
    with pytest.raises(ValueError):
        OnlineConfig(horizon=10, window=11)
    with pytest.raises(ValueError):
        OnlineConfig(horizon=10, ident_steps=10)
    with pytest.raises(ValueError):
        OnlineConfig(horizon=10, ident_steps=2, sigma_excitation=-0.5)
    with pytest.raises(ValueError, match="m0_scale"):
        OnlineConfig(horizon=10, ident_steps=2, m0_scale=0.0)
    for forgetting in (0.0, 1.5):
        with pytest.raises(ValueError, match="forgetting"):
            OnlineConfig(horizon=10, ident_steps=2, forgetting=forgetting)


def test_plan_window_single_step_matches_one_step_gain():
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    cfg = OnlineConfig(horizon=10, window=1, ident_steps=1, solver=linear_solver(), seed=5)
    kernel = KernelSpec(family="linear")
    x = np.array([1.0, 0.5])
    result = plan_window(x, sys_, first_warm_start(x, 3, sys_, kernel, cfg), kernel, 3, cfg, spec)
    u = eval_policy(KernelPolicy(kernel, [result.stages[0]]), 0, x)
    S = spec.R + sys_.B.T @ spec.Q_F @ sys_.B
    expected = -np.linalg.solve(S, sys_.B.T @ spec.Q_F @ sys_.A) @ x
    np.testing.assert_allclose(u, expected, atol=1e-6)
    assert result.cost_after <= result.cost_before + 1e-12


def test_plan_window_fixed_point_of_converged_warm_start():
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    cfg = OnlineConfig(horizon=6, window=4, ident_steps=1, solver=linear_solver(max_outer_iters=200), seed=5)
    kernel = KernelSpec(family="linear")
    x = np.array([0.8, -0.3])
    first = plan_window(x, sys_, first_warm_start(x, 1, sys_, kernel, cfg), kernel, 1, cfg, spec)
    again = plan_window(x, sys_, first.stages, kernel, 1, cfg, spec)
    assert again.cost_after <= again.cost_before + 1e-12
    assert again.cost_before == pytest.approx(first.cost_after, rel=1e-9)
    assert again.step_sq <= 1e-8


def test_plan_window_warm_start_length_checked():
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    cfg = OnlineConfig(horizon=10, window=3, ident_steps=1, solver=linear_solver(), seed=0)
    kernel = KernelSpec(family="linear")
    x = np.ones(2)
    first = plan_window(x, sys_, first_warm_start(x, 2, sys_, kernel, cfg), kernel, 2, cfg, spec)
    with pytest.raises(ValueError):
        plan_window(x, sys_, first.stages[:1], kernel, 2, cfg, spec)


def test_shift_warm_start_overlap_and_growth():
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    cfg = OnlineConfig(horizon=10, window=3, ident_steps=1, solver=linear_solver(), seed=0)
    kernel = KernelSpec(family="linear")
    x = np.array([1.0, 0.2])
    result = plan_window(x, sys_, first_warm_start(x, 2, sys_, kernel, cfg), kernel, 2, cfg, spec)
    x_next = np.array([0.9, 0.1])
    shifted = shift_warm_start(result.stages, 2, x_next, sys_, kernel, cfg)
    # window [2,5) shifts to [3,6): two overlapping stages plus one fresh one
    assert len(shifted) == 3
    for old, new in zip(result.stages[1:], shifted[:2]):
        np.testing.assert_array_equal(old.coefficients, new.coefficients)
        np.testing.assert_array_equal(old.dictionary.points, new.dictionary.points)
    assert shifted[2].dictionary is not None
    np.testing.assert_array_equal(shifted[2].coefficients, np.zeros((1, 1)))


def test_shift_warm_start_shrinks_at_horizon_end():
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    cfg = OnlineConfig(horizon=5, window=4, ident_steps=1, solver=linear_solver(), seed=0)
    kernel = KernelSpec(family="linear")
    # window [3, 5): already clipped by the horizon
    x = np.array([1.0, 0.2])
    result = plan_window(x, sys_, first_warm_start(x, 3, sys_, kernel, cfg), kernel, 3, cfg, spec)
    assert len(result.stages) == 2
    shifted = shift_warm_start(result.stages, 3, np.ones(2), sys_, kernel, cfg)
    assert len(shifted) == 1


def test_first_window_anchors_are_the_zero_control_rollout():
    sys_ = double_integrator()
    cfg = OnlineConfig(horizon=10, window=4, ident_steps=3, solver=linear_solver(), seed=0)
    kernel = KernelSpec(family="linear")
    x = np.array([1.0, 0.2])
    warm = first_warm_start(x, 3, sys_, kernel, cfg)
    # with the single observed state as the batch, a dictionary draw can only
    # pick the zero-control rollout state at each stage
    states = rollout(sys_, x[None, :], 4).states
    drawn = build_dictionaries(states, 4, cfg.solver.dict_size, np.random.default_rng(0))
    assert len(warm) == 4
    for t, stage in enumerate(warm):
        assert stage.dictionary.stage == 3 + t
        np.testing.assert_array_equal(stage.dictionary.points, states[0, t][None, :])
        np.testing.assert_array_equal(stage.dictionary.points, drawn[t].points)
        np.testing.assert_array_equal(stage.coefficients, np.zeros((1, 1)))


def test_window_with_diverging_prediction_is_rejected_and_keeps_warm_start():
    sys_ = LinearSystem(A=[[1.0e3]], B=[[1.0]])
    spec = lq_spec(1, 1)
    cfg = OnlineConfig(horizon=10, window=3, ident_steps=1, solver=linear_solver(), seed=0)
    kernel = KernelSpec(family="linear")
    x = np.array([10.0])
    # the 1e7 prediction is past the state guard, so the last anchor stays at
    # 1e4; the window's rollout crosses the guard
    warm = first_warm_start(x, 2, sys_, kernel, cfg)
    assert [stage.dictionary.points.item() for stage in warm] == [10.0, 1e4, 1e4]
    result = plan_window(x, sys_, warm, kernel, 2, cfg, spec)
    assert result.rejected
    assert result.stages is warm
    assert result.cost_before == result.cost_after == np.inf
    assert result.step_sq == 0.0
    for stage in warm:
        np.testing.assert_array_equal(stage.coefficients, np.zeros((1, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_model_prediction_rejects_windows_instead_of_raising():
    # the identified model predicts 1e162 from x = 100: finite, far past the
    # state guard, and 1e160 times that overflows.  No anchor is placed
    # there, every window's rollout crosses the guard and is rejected, and the
    # zero-coefficient warm start keeps the true plant at rest.
    plant = LinearSystem([[1.0]], [[1.0]])
    cfg = OnlineConfig(
        window=3, ident_steps=0, horizon=6,
        solver=SolverConfig(kernel_family="linear", max_outer_iters=2),
    )
    log = run_online(plant, cfg, lq_spec(1, 1), theta0=[[1e160, 1.0]], x0=[100.0])
    assert not log.diverged
    assert len(log.planning_steps) == 6
    assert all(r.window_rejected for r in log.planning_steps)
    np.testing.assert_array_equal(log.states, np.full((7, 1), 100.0))


def test_window_whose_last_sweep_runs_past_the_guard_at_its_end_is_rejected():
    # a negative terminal weight rewards running away: the one sweep accepts
    # a last-stage step whose final state lies past the state guard, which
    # only the batch that sweep makes shows
    sys_ = LinearSystem(A=[[1.0]], B=[[1.0]])
    spec = CostSpec(Q=[[0.0]], R=[[1e-3]], Q_F=[[-1.0]])
    solver = linear_solver(delta_lr=1e9, max_outer_iters=1)
    cfg = OnlineConfig(horizon=3, window=3, ident_steps=0, solver=solver)
    kernel = KernelSpec(family="linear")
    x = np.array([1.0])
    warm = first_warm_start(x, 0, sys_, kernel, cfg)
    result = plan_window(x, sys_, warm, kernel, 0, cfg, spec)
    assert result.rejected
    assert result.stages is warm
    policy_rollout(sys_, KernelPolicy(kernel, warm), x[None, :])  # which stays inside the guard


def test_full_window_shift_drops_only_executed_stage():
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    cfg = OnlineConfig(horizon=5, window=5, ident_steps=1, solver=linear_solver(), seed=0)
    kernel = KernelSpec(family="linear")
    x = np.array([1.0, 0.2])
    result = plan_window(x, sys_, first_warm_start(x, 0, sys_, kernel, cfg), kernel, 0, cfg, spec)
    assert len(result.stages) == 5
    shifted = shift_warm_start(result.stages, 0, np.ones(2), sys_, kernel, cfg)
    assert len(shifted) == 4
    for old, new in zip(result.stages[1:], shifted):
        np.testing.assert_array_equal(old.coefficients, new.coefficients)


def _perfect_model_run(horizon=5, window=5, x0=np.array([1.0, 0.5])):
    sys_ = double_integrator()
    spec = lq_spec(2, 1)
    theta0 = np.hstack([sys_.A, sys_.B])
    cfg = OnlineConfig(
        horizon=horizon,
        window=window,
        ident_steps=0,
        sigma_excitation=0.0,
        solver=linear_solver(max_outer_iters=300),
        seed=5,
    )
    log = run_online(sys_, cfg, spec, theta0=theta0, x0=x0)
    return sys_, spec, cfg, log


def test_run_online_identification_skipped_with_known_model():
    sys_, spec, cfg, log = _perfect_model_run()
    assert len(log.identification_steps) == 0
    assert len(log.planning_steps) == 5
    assert not log.diverged


def test_run_online_window_descent_everywhere():
    _, _, cfg, log = _perfect_model_run()
    for r in log.planning_steps:
        assert r.window_cost_after <= r.window_cost_before + cfg.solver.inner_tol


def test_receding_horizon_matches_offline_solution():
    sys_, spec, cfg, log = _perfect_model_run()
    x0 = log.states[0]
    policy, _, _ = run_policy_iteration(sys_, spec, 5, x0[None, :], linear_solver(max_outer_iters=300))
    _, controls = policy_rollout(sys_, policy, x0[None, :])
    np.testing.assert_allclose(log.controls, controls[0], atol=1e-6)


def test_perfect_model_closed_loop_cost_near_oracle():
    sys_, spec, cfg, log = _perfect_model_run(horizon=8, window=8, x0=np.array([1.5, -0.4]))
    cost = 0.0
    for t in range(8):
        x, u = log.states[t], log.controls[t]
        cost += x @ spec.Q @ x + u @ spec.R @ u
    cost += log.states[8] @ spec.Q_F @ log.states[8]
    oracle = lqr_cost(riccati_backward(sys_, spec.Q, spec.R, spec.Q_F, 8), log.states[0][None, :])
    assert cost <= oracle * 1.02


def test_closed_loop_cost_non_increasing_in_window_length():
    # empirical check, not a theorem: with expensive control and a weak
    # terminal weight, longer windows pay off monotonically
    sys_ = LinearSystem(A=[[1.0, 0.2], [0.0, 1.0]], B=[[0.02], [0.2]])
    spec = CostSpec(Q=np.eye(2), R=[[4.0]], Q_F=0.01 * np.eye(2))
    theta0 = np.hstack([sys_.A, sys_.B])
    T = 10
    x0 = np.array([3.0, 0.0])

    def closed_loop_cost(H):
        cfg = OnlineConfig(
            horizon=T,
            window=H,
            ident_steps=0,
            sigma_excitation=0.0,
            solver=linear_solver(max_outer_iters=200),
            seed=5,
        )
        log = run_online(sys_, cfg, spec, theta0=theta0, x0=x0)
        cost = 0.0
        for t in range(T):
            x, u = log.states[t], log.controls[t]
            cost += x @ spec.Q @ x + u @ spec.R @ u
        return cost + log.states[T] @ spec.Q_F @ log.states[T]

    costs = [closed_loop_cost(H) for H in (1, 2, 4, T)]
    for shorter, longer in zip(costs, costs[1:]):
        assert longer <= shorter + 1e-9


def _mixed_scenario():
    scen = ScenarioConfig(
        n_cav=2,
        n_hdv=1,
        horizon=30,
        dt=0.1,
        intersection_length=4.0,
        entry_offsets=(8.0, 10.0, 9.0),
        desired_speeds=(5.0, 4.0, 4.5),
        position_jitter=1.0,
        speed_range=(4.0, 5.0),
    )
    return build_intersection(scen)


def test_run_online_identifies_hidden_coupling():
    scenario, learner, plant, cost = _mixed_scenario()
    cfg = OnlineConfig(
        horizon=30,
        window=4,
        ident_steps=15,
        sigma_excitation=1.5,
        m0_scale=1e6,
        solver=SolverConfig(delta_lr=2.0, max_outer_iters=4, mc_samples=1, dict_size=1, convergence_tol=1e-10),
        seed=4,
    )
    log = run_online(plant, cfg, cost, scenario=scenario)
    assert not log.diverged
    ident = log.identification_steps
    assert len(ident) == 15
    assert ident[-1].param_error < 1e-2
    assert ident[-1].param_error < ident[0].param_error
    for r in log.planning_steps:
        assert r.window_cost_after <= r.window_cost_before + cfg.solver.inner_tol
    # the logged safety summary agrees with a recomputation from the states
    assert log.min_distance == pytest.approx(min_pairwise_distance(log.states, scenario))
    post = log.states[cfg.ident_steps :]
    assert log.min_distance_post_ident == pytest.approx(min_pairwise_distance(post, scenario))
    assert log.pe_result.status in ("satisfied", "not_satisfied", "insufficient_data")


def test_unstable_plant_stops_identification_at_the_state_guard():
    # x doubles each step: identification must stop at the guard, as a
    # divergence, instead of feeding ever larger states to the estimator
    plant = LinearSystem([[2.0]], [[1.0]])
    cfg = OnlineConfig(horizon=45, window=2, ident_steps=40, solver=linear_solver(), seed=0)
    log = run_online(plant, cfg, lq_spec(1, 1), x0=[1.0])
    assert log.diverged
    assert len(log.identification_steps) < 25
    assert log.max_state_norm <= STATE_GUARD


def test_run_online_requires_state_or_scenario():
    sys_ = double_integrator()
    cfg = OnlineConfig(horizon=4, window=2, ident_steps=1, solver=linear_solver(), seed=0)
    with pytest.raises(ValueError):
        run_online(sys_, cfg, lq_spec(2, 1))


def test_a_three_window_run_factorises_each_dictionary_once(monkeypatch):
    # warm starts carry a stage's dictionary from window to window, and its
    # Gram factor with it: every window builds stage solvers, but each
    # dictionary's ridge-shifted Gram matrix is factorised once
    import kernelpi.offline as offline

    factorised, dictionaries = [], []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda K: factorised.append(1) or cholesky(K))

    class Recorded(offline.StageSolver):
        def __init__(self, kernel, dictionary, *args):
            dictionaries.append(dictionary)
            super().__init__(kernel, dictionary, *args)

    monkeypatch.setattr(offline, "StageSolver", Recorded)
    sys_ = double_integrator()
    cfg = OnlineConfig(
        window=3,
        horizon=3,
        ident_steps=0,
        sigma_excitation=0.0,
        solver=SolverConfig(
            delta_lr=1.0, max_outer_iters=4, mc_samples=1, dict_size=1, length_scale=1.0
        ),
    )
    theta0 = np.hstack([sys_.A, sys_.B])
    log = run_online(sys_, cfg, lq_spec(2, 1), theta0=theta0, x0=np.array([1.0, -0.5]))
    assert len(log.planning_steps) == 3
    assert len(dictionaries) == 3 + 2 + 1  # the windows shrink at the horizon's end
    distinct = {id(d) for d in dictionaries}
    assert len(distinct) == 3
    assert len(factorised) == len(distinct)
