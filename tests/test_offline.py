import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelpi.costs import CostSpec, TailEvaluator, evaluate_cost_to_go
from kernelpi.dynamics import (
    LinearSystem,
    assemble_team_system,
    discretize_double_integrator,
    rollout,
)
from kernelpi.kernels import (
    Dictionary,
    KernelPolicy,
    KernelSpec,
    StagePolicy,
    cross_gram,
    gram_matrix,
)
from kernelpi.offline import (
    CURVATURE_GATE,
    ROOT_TOL,
    PolicyIterationDiverged,
    SingularGramError,
    SolverConfig,
    StageSolver,
    complexity_probe,
    discrete_frechet_derivative,
    policy_iteration,
    run_policy_iteration,
    solve_implicit_update,
    _StageWorkspace,
)
from kernelpi.riccati import lqr_cost, riccati_backward
from reference import empirical_stage_objective, hand_over, policy_rollout


def test_derivative_zero_difference_gives_zero():
    pi = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(discrete_frechet_derivative(pi, pi, 5.0, 1.0), np.zeros(3))


def test_derivative_unit_direction():
    old = np.zeros(3)
    new = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(discrete_frechet_derivative(new, old, 0.5, 0.0), [0.5, 0.0, 0.0])


def test_derivative_diagonal_direction_and_secant():
    old = np.zeros(2)
    new = np.array([1.0, 1.0])
    D = discrete_frechet_derivative(new, old, 4.0, 0.0)
    np.testing.assert_allclose(D, [2.0, 2.0])
    assert (new - old) @ D == pytest.approx(4.0)


def test_derivative_shape_mismatch():
    with pytest.raises(ValueError):
        discrete_frechet_derivative(np.zeros(2), np.zeros(3), 1.0, 0.0)


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 100_000))
def test_secant_identity_random_instances(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    old = rng.normal(size=shape)
    new = old + rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2)
    J_old, J_new = rng.normal(size=2) * 10.0
    D = discrete_frechet_derivative(new, old, J_new, J_old)
    lhs = float(np.sum((new - old) * D))
    assert abs(lhs - (J_new - J_old)) <= 1e-12 * max(1.0, abs(J_new - J_old))


def _update(solver, c_old, tail, states, curvature=0.0):
    """solve_implicit_update at c_old given what a sweep hands over (reference.hand_over)."""
    handed, stage_costs = hand_over(solver, c_old, tail, states)
    return solve_implicit_update(solver, c_old, tail, states, handed, stage_costs, curvature)


def _terminal_tail(sys_, spec, kernel):
    """A tail with no stages left: its values are the terminal cost."""
    return TailEvaluator(sys_, spec, KernelPolicy(kernel, []), 0)


def _quadratic_stage(seed=0, N=6, M=3, n=2, m=1, family="gaussian-rbf"):
    """Stage problem with terminal continuation: objective quadratic in c."""
    rng = np.random.default_rng(seed)
    sys_ = LinearSystem(
        A=np.eye(n) + 0.2 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m))
    )
    spec = CostSpec(Q=np.eye(n), R=np.eye(m), Q_F=np.eye(n))
    states = rng.normal(size=(N, n))
    kernel = KernelSpec(family=family, length_scale=1.5)
    d = Dictionary(points=rng.normal(size=(M, n)))
    cross = cross_gram(kernel, states, d)
    tail = _terminal_tail(sys_, spec, kernel)
    solver_for = lambda cfg: StageSolver(kernel, d, cfg, spec, sys_)
    return sys_, spec, states, cross, tail, rng, solver_for


def _objective_gradient(sys_, spec, states, cross, C):
    """Analytic gradient of the quadratic stage objective wrt stacked controls."""
    Pi = cross @ C
    Y = states @ sys_.A.T + Pi @ sys_.B.T
    N = states.shape[0]
    return (2.0 * Pi @ spec.R + 2.0 * Y @ spec.Q_F @ sys_.B) / N


def test_derivative_approaches_directional_gradient():
    sys_, spec, states, cross, tail, rng, _ = _quadratic_stage(seed=5)
    C = rng.normal(size=(3, 1))
    continuation = lambda Y: tail.values(Y)[0]
    J0 = empirical_stage_objective(C, states, continuation, sys_, spec, cross)
    direction = rng.normal(size=C.shape)
    G = _objective_gradient(sys_, spec, states, cross, C)
    exact = float(np.sum(G * (cross @ direction)))
    errors = []
    P = cross @ direction
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        # scale the coefficient step so the stacked value step has norm eps
        a = eps / np.linalg.norm(P)
        J1 = empirical_stage_objective(C + a * direction, states, continuation, sys_, spec, cross)
        D = discrete_frechet_derivative(cross @ (C + a * direction), cross @ C, J1, J0)
        # <D, P> equals the one-sided difference quotient along the direction
        slope = float(np.sum(D * P))
        errors.append(abs(slope - exact))
    assert errors[-1] <= 3e-3 * errors[0] + 1e-12
    assert errors[-1] <= 1e-5 * max(1.0, abs(exact))


def test_stage_gradient_with_an_asymmetric_control_weight_matches_central_differences():
    # u'Ru reads only R's symmetric part, so the gradient with respect to the
    # sampled controls must too: 2 pi R would be off by pi (R - R') / N
    rng = np.random.default_rng(3)
    sys_ = LinearSystem(A=np.eye(2) + 0.1 * rng.normal(size=(2, 2)), B=rng.normal(size=(2, 2)))
    spec = CostSpec(Q=np.eye(2), R=[[1.0, 0.9], [-0.9, 1.0]], Q_F=np.eye(2))
    kernel = KernelSpec(family="gaussian-rbf", length_scale=1.5)
    d = Dictionary(points=rng.normal(size=(3, 2)))
    states = rng.normal(size=(4, 2))
    tail = _terminal_tail(sys_, spec, kernel)
    c_old = rng.normal(size=(3, 2))
    solver = StageSolver(kernel, d, SolverConfig(), spec, sys_)
    handed, stage_costs = hand_over(solver, c_old, tail, states)
    _, G = _StageWorkspace(solver, c_old, tail, states, handed, stage_costs).value_gradient()

    def J(pi):
        Y = states @ sys_.A.T + pi @ sys_.B.T
        return float(np.mean(spec.state_cost(states) + spec.control_cost(pi) + tail.values(Y)[0]))

    pi_old = cross_gram(kernel, states, d) @ c_old
    h = 1e-6
    central = np.zeros_like(pi_old)
    for i, j in np.ndindex(*pi_old.shape):
        step = np.zeros_like(pi_old)
        step[i, j] = h
        central[i, j] = (J(pi_old + step) - J(pi_old - step)) / (2.0 * h)
    np.testing.assert_allclose(G, central, rtol=0, atol=1e-7 * np.abs(central).max())


def test_stationary_point_returns_old_coefficients():
    # zero terminal weight and zero state cost make c = 0 a stationary point
    rng = np.random.default_rng(8)
    sys_ = LinearSystem(A=np.eye(2), B=rng.normal(size=(2, 1)))
    spec = CostSpec(Q=np.zeros((2, 2)), R=np.eye(1), Q_F=np.zeros((2, 2)))
    states = rng.normal(size=(5, 2))
    kernel = KernelSpec(family="gaussian-rbf", length_scale=1.0)
    d = Dictionary(points=rng.normal(size=(3, 2)))
    tail = _terminal_tail(sys_, spec, kernel)
    c_old = np.zeros((3, 1))
    cfg = SolverConfig(delta_lr=5.0)
    res = _update(StageSolver(kernel, d, cfg, spec, sys_), c_old, tail, states)
    np.testing.assert_array_equal(res.c_new, c_old)
    assert not res.accepted
    assert res.objective_new == res.objective_old


def test_scalar_update_matches_bisection_oracle():
    # single sample at x = 1 and a single anchor at 1 with the linear kernel:
    # the coefficient equation reduces to J(c0 + d) - J(c0) + d^2/delta = 0
    sys_ = LinearSystem(A=[[1.0]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    states = np.array([[1.0]])
    kernel = KernelSpec(family="linear")
    d = Dictionary(points=np.array([[1.0]]))
    cross = cross_gram(kernel, states, d)
    tail = _terminal_tail(sys_, spec, kernel)
    delta = 4.0
    c_old = np.array([[0.2]])
    cfg = SolverConfig(delta_lr=delta)
    continuation = lambda Y: tail.values(Y)[0]

    def J(c):
        return empirical_stage_objective(np.array([[c]]), states, continuation, sys_, spec, cross)

    J0 = J(0.2)
    g = lambda step: J(0.2 + step) - J0 + step**2 / delta
    lo, hi = -1e-9, -2.0
    assert g(lo) < 0 and g(hi) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)

    res = _update(StageSolver(kernel, d, cfg, spec, sys_), c_old, tail, states)
    assert res.accepted
    assert res.c_new[0, 0] - 0.2 == pytest.approx(root, abs=1e-6)
    assert res.objective_new < res.objective_old


def test_accepted_steps_satisfy_descent_identity():
    sys_, spec, states, _, tail, rng, solver_for = _quadratic_stage(seed=13, N=8, M=4)
    cfg = SolverConfig(delta_lr=8.0)
    c_old = rng.normal(size=(4, 1))
    res = _update(solver_for(cfg), c_old, tail, states)
    assert res.accepted
    dJ = res.objective_new - res.objective_old
    assert dJ == pytest.approx(-res.value_step_sq / cfg.delta_lr, abs=cfg.inner_tol)
    assert res.secant_gap <= cfg.inner_tol
    assert dJ < 0


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_stage_root_is_closed_form_within_four_tail_calls(seed):
    # with a linear kernel and a terminal-cost tail, J is quadratic along the
    # step: J(t) = J0 + s t + kappa t^2, so the secant identity's root along the
    # solver's own direction is t* = -s / (kappa + ||P||^2 / delta)
    sys_, spec, states, cross, tail, rng, solver_for = _quadratic_stage(
        seed=seed, N=8, M=2, family="linear"
    )
    cfg = SolverConfig(delta_lr=float(rng.uniform(0.5, 50.0)))
    c_old = rng.normal(size=(2, 1))
    res = _update(solver_for(cfg), c_old, tail, states)
    assert res.accepted and res.reason == "ok"
    step = res.c_new - c_old
    t_solver = float(np.linalg.norm(step))
    P = cross @ (step / t_solver)
    N = states.shape[0]
    s = float(np.sum(_objective_gradient(sys_, spec, states, cross, c_old) * P))
    PB = P @ sys_.B.T
    kappa = float(np.sum((P @ spec.R) * P) + np.sum((PB @ spec.Q_F) * PB)) / N
    t_star = -s / (kappa + float(np.sum(P * P)) / cfg.delta_lr)
    assert t_solver == pytest.approx(t_star, rel=1e-9)
    assert res.tail_calls <= 3  # the hand-over's tail call is the fourth


def _penalty_instance(seed):
    """A two-vehicle crossing: RBF kernel, collision penalty, a 4-stage policy and its batch."""
    from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states

    rng = np.random.default_rng(seed)
    scen = ScenarioConfig(
        n_cav=2, horizon=4, entry_offsets=(12.0, 14.0), position_jitter=1.0, speed_range=(4.0, 6.0)
    )
    scenario, learner, _, cost = build_intersection(scen)
    X0 = sample_initial_states(scenario, rng, 10)
    kernel = KernelSpec(family="gaussian-rbf", length_scale=float(rng.uniform(2.0, 8.0)))
    states = rollout(learner, X0, 4).states
    stages = []
    for t in range(4):
        d = Dictionary(points=states[:6, t], stage=t)
        stages.append(StagePolicy(d, 0.5 * rng.normal(size=(6, learner.m))))
    return learner, cost, KernelPolicy(kernel, stages), X0, rng


def _penalty_stage(seed):
    """Stage 0 of _penalty_instance: its batch states, solver and 3-stage tail."""
    learner, cost, policy, X0, rng = _penalty_instance(seed)
    states = policy_rollout(learner, policy, X0)[0]
    first = policy.stages[0]
    tail = TailEvaluator(learner, cost, policy, 1)
    solver_for = lambda cfg: StageSolver(policy.kernel, first.dictionary, cfg, cost, learner)
    return learner, cost, states[:, 0], solver_for, tail, first.coefficients, rng


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), log_delta=st.floats(-1.0, 3.0), penalty=st.booleans())
def test_accepted_stage_steps_descend_within_the_stop_rule(seed, log_delta, penalty):
    if penalty:
        sys_, spec, states, solver_for, tail, c_old, rng = _penalty_stage(seed)
    else:
        sys_, spec, states, _, tail, rng, solver_for = _quadratic_stage(seed=seed, N=8, M=4)
        c_old = rng.normal(size=(4, 1))
    cfg = SolverConfig(delta_lr=10.0**log_delta)
    res = _update(solver_for(cfg), c_old, tail, states)
    if res.accepted:
        assert res.objective_new < res.objective_old
        assert res.secant_gap <= ROOT_TOL * cfg.inner_tol * (1.0 + abs(res.objective_old))
    else:
        np.testing.assert_array_equal(res.c_new, c_old)
        assert res.objective_new == res.objective_old


def _scalar_instance_cfg(**kw):
    base = dict(
        delta_lr=32.0,
        max_outer_iters=200,
        mc_samples=32,
        dict_size=3,
        kernel_family="linear",
        convergence_tol=1e-14,
    )
    base.update(kw)
    return SolverConfig(**base)


def test_policy_iteration_recovers_scalar_gain():
    sys_ = LinearSystem(A=[[1.0]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    policy, records, _ = policy_iteration(
        sys_, spec, lambda rng, N: rng.uniform(0.5, 1.5, size=(N, 1)), _scalar_instance_cfg(), horizon=1,
        seed=1,
    )
    stage = policy.stages[0]
    gain = float((stage.coefficients.T @ stage.dictionary.points).item())
    assert gain == pytest.approx(-0.5, abs=1e-3)


def test_policy_iteration_matches_quadratic_oracle_cost():
    base = discretize_double_integrator(0.1)
    sys_ = assemble_team_system([base])
    Q, R, QF = np.eye(2), np.eye(1), np.eye(2)
    spec = CostSpec(Q=Q, R=R, Q_F=QF)
    cfg = SolverConfig(
        delta_lr=40.0,
        max_outer_iters=150,
        mc_samples=40,
        dict_size=6,
        kernel_family="linear",
        convergence_tol=1e-12,
    )

    def sampler(rng, N):
        X = np.empty((N, 2))
        X[:, 0] = rng.uniform(-2, 2, size=N)
        X[:, 1] = rng.uniform(-1, 1, size=N)
        return X

    T = 5
    policy, records, batch = policy_iteration(sys_, spec, sampler, cfg, horizon=T, seed=2)
    oracle = lqr_cost(riccati_backward(sys_, Q, R, QF, T), batch.states[:, 0])
    assert records[-1].cost_after <= oracle * 1.02
    assert records[-1].cost_after >= oracle * (1 - 1e-9)


def _small_rbf_run(max_iters=12):
    from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states

    scen = ScenarioConfig(
        n_cav=2, horizon=8, entry_offsets=(12.0, 14.0), position_jitter=1.0, speed_range=(4.0, 6.0)
    )
    scenario, learner, _, cost = build_intersection(scen)
    cfg = SolverConfig(
        delta_lr=12.0, max_outer_iters=max_iters, mc_samples=12, dict_size=8, convergence_tol=0.0
    )
    policy, records, _ = policy_iteration(
        learner, cost, lambda rng, N: sample_initial_states(scenario, rng, N), cfg, horizon=8, seed=9
    )
    return cfg, policy, records


def test_policy_iteration_monotone_and_telescoping():
    cfg, policy, records = _small_rbf_run()
    costs = [r.cost for r in records]
    for k in range(len(records) - 1):
        assert records[k + 1].cost <= records[k].cost + cfg.inner_tol * 8
        # the sweep's stage-0 objective is exactly the next iteration's cost
        assert records[k + 1].cost == pytest.approx(records[k].cost_after, rel=1e-9)
    for r in records:
        assert (r.stage_secant_gaps <= cfg.inner_tol * (1.0 + abs(r.cost))).all()


def test_policy_iteration_step_norms_sum_to_descent():
    cfg, policy, records = _small_rbf_run()
    total_step_sq = sum(r.total_step_sq for r in records)
    descent = records[0].cost - min(r.cost_after for r in records)
    bound = cfg.delta_lr * descent
    assert total_step_sq <= bound * (1.0 + 1e-8) + 1e-9


def test_policy_iteration_convergence_threshold_stops_early():
    from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states

    scen = ScenarioConfig(
        n_cav=1, horizon=4, entry_offsets=(12.0,), desired_speeds=(5.0,), position_jitter=0.5,
        speed_range=(4.0, 6.0),
    )
    scenario, learner, _, cost = build_intersection(scen)
    cfg = SolverConfig(
        delta_lr=8.0, max_outer_iters=400, mc_samples=8, dict_size=4, convergence_tol=1e-9
    )
    _, records, _ = policy_iteration(
        learner, cost, lambda rng, N: sample_initial_states(scenario, rng, N), cfg, horizon=4, seed=3
    )
    assert len(records) < 400


def test_policy_iteration_divergence_carries_partial_history():
    sys_ = LinearSystem(A=[[3.0]], B=[[0.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    cfg = SolverConfig(delta_lr=1.0, max_outer_iters=5, mc_samples=2, dict_size=2)
    with pytest.raises(PolicyIterationDiverged) as exc:
        policy_iteration(
            sys_, spec, lambda rng, N: rng.uniform(100.0, 200.0, size=(N, 1)), cfg, horizon=30
        )
    assert isinstance(exc.value.records, list)


def test_diverging_zero_control_rollout_raises_before_any_iteration():
    sys_ = LinearSystem(A=[[3.0]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    cfg = SolverConfig(max_outer_iters=5, mc_samples=2, dict_size=2)
    with pytest.raises(PolicyIterationDiverged) as exc:
        run_policy_iteration(sys_, spec, 30, np.array([[100.0], [200.0]]), cfg)
    assert exc.value.records == []
    assert exc.value.policy is None


def _given_policy(kernel, points, horizon):
    """A zero one-input policy over one dictionary of points per stage."""
    stages = [StagePolicy.zero(1, Dictionary(points=points, stage=t)) for t in range(horizon)]
    return KernelPolicy(kernel, stages)


@pytest.mark.parametrize("horizon", [2, 3], ids=["final-rows", "entering-stage"])
def test_a_warm_start_diverging_in_iteration_0_raises_with_the_first_crossing(horizon):
    # under zero control x_t = 1e3^t x_0: row 1 (x_0 = 10) first leaves the
    # guard at stage 2, which is the final rows at horizon 2 and a stage the
    # tail enters at horizon 3 (row 0 crosses only at stage 3)
    sys_ = LinearSystem(A=[[1e3]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    policy = _given_policy(KernelSpec(length_scale=1.0), [[0.0], [1.0]], horizon)
    cfg = SolverConfig(max_outer_iters=3, mc_samples=2, dict_size=2)
    with pytest.raises(PolicyIterationDiverged) as exc:
        run_policy_iteration(sys_, spec, horizon, np.array([[1.0], [10.0]]), cfg, policy=policy)
    assert exc.value.records == []
    assert exc.value.policy is policy
    assert (exc.value.cause.sample_index, exc.value.cause.stage) == (1, 2)


@pytest.mark.parametrize("family", ["gaussian-rbf", "linear", "polynomial"])
def test_a_singular_gram_escapes_unwrapped(family):
    # a repeated anchor makes the Gram matrix singular, and ridge 0 leaves it so
    sys_ = LinearSystem(A=[[0.5]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    kernel = KernelSpec(family=family, length_scale=1.0, degree=2, offset=1.0)
    policy = _given_policy(kernel, [[1.0], [2.0], [1.0]], 2)
    cfg = SolverConfig(max_outer_iters=2, mc_samples=2, dict_size=3, ridge=0.0)
    with pytest.raises(SingularGramError):
        run_policy_iteration(sys_, spec, 2, np.array([[0.5], [-0.5]]), cfg, policy=policy)


def test_run_policy_iteration_warm_start_descends_from_given_policy():
    sys_, spec, states, _, tail, rng, _ = _quadratic_stage(seed=17, N=4, M=2)
    cfg = SolverConfig(delta_lr=4.0, max_outer_iters=3, mc_samples=4, dict_size=2)
    x0 = rng.normal(size=(4, 2))
    policy, records, _ = run_policy_iteration(sys_, spec, 3, x0, cfg, dict_rng=np.random.default_rng(5))
    warm_cost = records[-1].cost_after
    policy2, records2, _ = run_policy_iteration(sys_, spec, 3, x0, cfg, policy=policy)
    assert records2[0].cost == pytest.approx(warm_cost, rel=1e-9)
    assert records2[-1].cost_after <= warm_cost + 1e-12


def test_stage_gram_factors_are_built_once_per_run(monkeypatch):
    import kernelpi.offline as offline

    calls = []
    original = offline.gram_matrix
    monkeypatch.setattr(
        offline, "gram_matrix", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    sys_, spec, _, _, _, rng, _ = _quadratic_stage(seed=17, N=4, M=2)
    cfg = SolverConfig(delta_lr=4.0, max_outer_iters=3, mc_samples=4, dict_size=2, convergence_tol=0.0)
    _, records, _ = run_policy_iteration(sys_, spec, 4, rng.normal(size=(4, 2)), cfg)
    assert len(records) == 3
    assert len(calls) == 4


def test_each_stage_is_compiled_at_c_old_and_along_its_direction_once_per_sweep(monkeypatch):
    # a stage update compiles its stage twice, at c_old and along its
    # direction, into the line its trials run on; settled at the chosen
    # step, that line is the tail the update of stage t - 1 reads, so nothing
    # is compiled again; iteration 0's batch comes from one more tail, over
    # every stage of the policy
    import kernelpi.costs as costs

    calls = []
    original = costs.StageExpansion
    monkeypatch.setattr(
        costs, "StageExpansion", lambda *a, **kw: calls.append(1) or original(*a, **kw)
    )
    sys_, spec, _, _, _, rng, _ = _quadratic_stage(seed=17, N=4, M=2)
    cfg = SolverConfig(delta_lr=4.0, max_outer_iters=3, mc_samples=4, dict_size=2, convergence_tol=0.0)
    _, records, _ = run_policy_iteration(sys_, spec, 5, rng.normal(size=(4, 2)), cfg)
    assert len(records) == 3
    assert len(calls) == 5 + 3 * 2 * 5


def test_duplicate_anchors_with_a_ridge_build_a_stage_solver_without_warning():
    # the solver factors K + ridge * mean(diag K) * I, which is positive
    # definite although two anchors coincide, so nothing warns of singularity
    sys_ = LinearSystem(A=np.eye(2), B=[[0.0], [1.0]])
    spec = CostSpec(Q=np.eye(2), R=np.eye(1), Q_F=np.eye(2))
    d = Dictionary(points=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver = StageSolver(KernelSpec(), d, SolverConfig(ridge=1e-8), spec, sys_)
    assert np.all(np.isfinite(solver.K_inv))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["gaussian-rbf", "polynomial", "linear"]),
    ridge=st.sampled_from([1e-12, 1e-8, 1e-2]),
    M=st.integers(1, 8),
)
def test_stage_solver_directions_descend_and_match_a_direct_solve(seed, family, ridge, M):
    # n = 2, so a linear kernel over M > 2 anchors has a rank-deficient Gram
    rng = np.random.default_rng(seed)
    n, m, N = 2, 2, 6
    sys_ = LinearSystem(A=np.eye(n), B=rng.normal(size=(n, m)))
    spec = CostSpec(Q=np.eye(n), R=np.eye(m), Q_F=np.eye(n))
    kernel = KernelSpec(family=family, length_scale=1.5, degree=3, offset=0.5)
    d = Dictionary(points=rng.normal(size=(M, n)))
    solver = StageSolver(kernel, d, SolverConfig(ridge=ridge), spec, sys_)
    K_inv = solver.K_inv
    assert np.all(np.isfinite(K_inv))
    np.testing.assert_array_equal(K_inv, K_inv.T)

    c_old, tail = np.zeros((M, m)), _terminal_tail(sys_, spec, kernel)
    states = rng.normal(size=(N, n))
    ws = _StageWorkspace(solver, c_old, tail, states, *hand_over(solver, c_old, tail, states))
    G = rng.normal(size=(N, m))
    V, P, p2, s0 = ws.descent_direction(G)
    assert s0 <= 0.0
    K = gram_matrix(kernel, d)
    K_ridge = K + ridge * np.mean(np.diag(K)) * np.eye(M)
    if np.linalg.cond(K_ridge) < 1e6:
        V_ref = -np.linalg.solve(K_ridge, ws.cross.T @ G)
        assert np.linalg.norm(V - V_ref) <= 1e-9 * np.linalg.norm(V_ref)


def test_complexity_probe_single_point(monkeypatch):
    # the probe derives its row-stages from each update's tail calls; count
    # them here from the simulations and walks the updates actually run:
    # rows times the evaluator's stages for every tail simulation inside an
    # update, and rows times the trajectory's stages for every walk back
    import kernelpi.costs as costs
    import kernelpi.offline as offline

    counts, running = [], []  # one count per finished update; the running update's
    update, values, backward = (
        offline.solve_implicit_update,
        costs.TailEvaluator.values,
        costs.Trajectory._backward,
    )

    def counted_update(*args, **kwargs):
        running.append(0)
        res = update(*args, **kwargs)
        counts.append(running.pop())
        return res

    def counted_values(tail, states, *args, **kwargs):
        if running:
            running[0] += np.atleast_2d(states).shape[0] * tail.stage_count
        return values(tail, states, *args, **kwargs)

    def counted_backward(path):
        if running:
            running[0] += path._W.shape[-1] * path.stage_count
        return backward(path)

    monkeypatch.setattr(offline, "solve_implicit_update", counted_update)
    monkeypatch.setattr(costs.TailEvaluator, "values", counted_values)
    monkeypatch.setattr(costs.Trajectory, "_backward", counted_backward)
    rows = complexity_probe([(4, 3, 3)], iterations=2, seed=0)
    assert len(rows) == 1
    assert rows[0].mc_samples == 4 and rows[0].dict_size == 3 and rows[0].horizon == 3
    assert rows[0].seconds_per_iteration > 0
    assert len(counts) == 3 * 3  # three iterations of three stage updates
    timed = [sum(counts[3 * k : 3 * k + 3]) for k in (1, 2)]  # the first is not timed
    assert rows[0].row_stages_per_iteration == np.mean(timed) > 0
    # the work counter, unlike the time, repeats exactly
    monkeypatch.undo()
    again = complexity_probe([(4, 3, 3)], iterations=2, seed=0)
    assert again[0].row_stages_per_iteration == rows[0].row_stages_per_iteration


@pytest.mark.parametrize("delta_lr", [1.0, 1e3, 1e9])
def test_diverging_trial_step_shrinks_instead_of_aborting(delta_lr):
    # open-loop unstable plant with nearly free control: long trial steps of
    # the line search blow the tail simulation up, but the accepted policy
    # never diverges, so the run must go on and keep descending
    sys_ = LinearSystem(A=[[1.5]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1e-6]], Q_F=[[1.0]])
    cfg = SolverConfig(
        delta_lr=delta_lr, max_outer_iters=20, mc_samples=20, convergence_tol=0.0
    )
    _, records, _ = policy_iteration(
        sys_, spec, lambda rng, N: rng.uniform(-1.0, 1.0, size=(N, 1)), cfg, horizon=12
    )
    assert len(records) == 20
    costs = [r.cost for r in records] + [records[-1].cost_after]
    assert all(b <= a + 1e-9 * (1.0 + abs(a)) for a, b in zip(costs, costs[1:]))


def _edge_of_guard_stage(a, y_far):
    """A scalar stage whose second sampled state has the successor y_far under c_old = 0.

    The tail re-simulates stages 1..3 under zero control, so with y_far just
    inside STATE_GUARD a contracting plant (a < 1) keeps that successor
    inside the guard, and an expanding one (a > 1) carries it past the guard
    at stage 2.
    """
    sys_ = LinearSystem(A=[[a]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    kernel = KernelSpec(family="linear")
    d = Dictionary(points=[[1.0]])
    policy = KernelPolicy(kernel, [StagePolicy.zero(1, d) for _ in range(4)])
    tail = TailEvaluator(sys_, spec, policy, 1)
    states = np.array([[1.0], [y_far / a]])
    solver = StageSolver(kernel, d, SolverConfig(), spec, sys_)
    return sys_, spec, solver, tail, states, cross_gram(kernel, states, d)


def test_probe_at_the_edge_of_the_guard_takes_the_exact_gradient():
    from kernelpi.dynamics import STATE_GUARD

    # a successor just inside the guard: the hand-over is one tail call at
    # c_old, the probe one backward pass over its three stages, and
    # dV/dy = 2 y (1 + a^2 + a^4 + a^6) for three stages and the terminal
    # cost under zero control
    a = 0.5
    sys_, spec, solver, tail, states, cross = _edge_of_guard_stage(a, STATE_GUARD - 2.0)
    c_old = np.zeros((1, 1))
    handed, stage_costs = hand_over(solver, c_old, tail, states)
    ws = _StageWorkspace(solver, c_old, tail, states, handed, stage_costs)
    J0, G = ws.value_gradient()
    y = a * states
    dV = 2.0 * y * sum(a ** (2 * k) for k in range(4))
    np.testing.assert_allclose(G, dV / 2, rtol=1e-12)
    continuation = lambda Y: tail.values(Y)[0]
    J_old = empirical_stage_objective(c_old, states, continuation, sys_, spec, cross)
    assert J0 == pytest.approx(J_old, rel=1e-12)
    assert ws.tail_calls == 0  # the probe simulates nothing
    res = solve_implicit_update(solver, c_old, tail, states, handed, stage_costs)
    assert res.accepted and res.objective_new < res.objective_old


def test_probe_with_non_finite_slopes_keeps_c_old_with_the_objective_at_c_old():
    # the states stay on the second axis, which contracts, but A moves the
    # second coordinate into the first, which grows 1e200-fold per stage:
    # walking back, dV/dy grows 1e200-fold per stage, overflows, and G is
    # not finite
    sys_ = LinearSystem(A=[[1e200, 0.0], [1.0, 0.5]], B=[[1.0], [1.0]])
    spec = CostSpec(Q=np.eye(2), R=np.eye(1), Q_F=np.eye(2))
    kernel = KernelSpec(family="linear")
    d = Dictionary(points=[[0.0, 1.0]])
    policy = KernelPolicy(kernel, [StagePolicy.zero(1, d) for _ in range(4)])
    tail = TailEvaluator(sys_, spec, policy, 1)
    states = np.array([[0.0, 1.0], [0.0, -2.0]])
    c_old = np.zeros((1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        solver = StageSolver(kernel, d, SolverConfig(), spec, sys_)
        res = _update(solver, c_old, tail, states)
    assert res.reason == "gradient-diverged" and not res.accepted
    np.testing.assert_array_equal(res.c_new, c_old)
    cross = cross_gram(kernel, states, d)
    J_old = empirical_stage_objective(c_old, states, lambda Y: tail.values(Y)[0], sys_, spec, cross)
    assert res.objective_old == pytest.approx(J_old, rel=1e-12)
    assert res.objective_new == res.objective_old
    assert (res.tail_calls, res.evals) == (1, 2)  # J0 and the hand-over at c_old


def test_next_trial_interpolates_the_inverse_of_q():
    from kernelpi.offline import _next_trial

    # a = 1 + q + q^2 / 4 is quadratic in q, so three points pin its root a(0) = 1
    points = [(1.0 + q + 0.25 * q * q, q) for q in (-1.5, 0.5, 2.0)]
    assert _next_trial(points) == pytest.approx(1.0, rel=1e-14)
    # two points, or three whose q values repeat, give the secant through the last two
    (a1, q1), (a2, q2) = points[1:]
    secant = a2 - q2 * (a2 - a1) / (q2 - q1)
    assert _next_trial(points[1:]) == secant
    assert _next_trial([(0.0, q1)] + points[1:]) == secant
    assert np.isnan(_next_trial([(1.0, 2.0), (3.0, 2.0)]))


@pytest.mark.parametrize(
    "horizon, max_iters", [(1, 3), (3, 3), (1, 1), (3, 1)], ids=["1", "3", "1-last", "3-last"]
)
def test_an_accepted_policy_past_the_guard_at_the_last_stage_raises(horizon, max_iters):
    # a negative terminal weight rewards running away, so the first sweep
    # accepts a long last-stage step whose final states lie past STATE_GUARD;
    # the last stage's tail is empty and checks nothing, so only the batch
    # the sweep makes can see it, the last sweep's included
    sys_ = LinearSystem(A=[[1.0]], B=[[1.0]])
    spec = CostSpec(Q=[[0.0]], R=[[1e-3]], Q_F=[[-1.0]])
    cfg = SolverConfig(
        delta_lr=1e9,
        max_outer_iters=max_iters,
        mc_samples=4,
        dict_size=2,
        kernel_family="linear",
        convergence_tol=0.0,
    )
    x0 = np.array([[1.0], [0.5], [-0.7], [1.2]])
    with pytest.raises(PolicyIterationDiverged) as exc:
        run_policy_iteration(sys_, spec, horizon, x0, cfg)
    assert len(exc.value.records) == 1
    assert exc.value.records[0].stages[-1].accepted
    assert (exc.value.cause.sample_index, exc.value.cause.stage) == (0, horizon)


def _recording_sweep(monkeypatch, max_iters=3):
    """_small_rbf_run with every stage update's arguments recorded in call order."""
    import kernelpi.offline as offline

    calls = []
    original = offline.solve_implicit_update

    def record(solver, c_old, tail, states, handed, stage_costs, curvature=0.0):
        calls.append((solver, np.array(c_old), tail, np.array(states), handed, np.array(stage_costs)))
        return original(solver, c_old, tail, states, handed, stage_costs, curvature)

    monkeypatch.setattr(offline, "solve_implicit_update", record)
    cfg, policy, records = _small_rbf_run(max_iters)
    return cfg, policy, records, calls


def test_handed_over_objective_and_gradient_match_a_tail_call_at_c_old(monkeypatch):
    # what the sweep hands over against one tail call at c_old's successors
    # and the cost spec's stage costs
    _, _, _, calls = _recording_sweep(monkeypatch)
    assert len(calls) == 3 * 8
    for solver, c_old, tail, states, handed, stage_costs in calls:
        J0, G = _StageWorkspace(solver, c_old, tail, states, handed, stage_costs).value_gradient()
        reference = hand_over(solver, c_old, tail, states)
        J_ref, G_ref = _StageWorkspace(solver, c_old, tail, states, *reference).value_gradient()
        assert abs(J0 - J_ref) <= 1e-9 * abs(J_ref)
        assert np.abs(G - G_ref).max() <= 1e-9 * np.abs(G_ref).max()


def _assert_sweep_reads_the_rollout(sweep, policy, X0):
    """The batch a sweep's recorded stage updates read is the rollout of policy from X0; returns it."""
    T = policy.horizon
    expected = policy_rollout(sweep[0][0].sys, policy, X0)
    # stage t gets the batch at t, and stage T - 1 the terminal trajectory at T
    got = [sweep[T - 1 - t][3] for t in range(T)] + [sweep[0][4].states()[:, 0]]
    _assert_states_match(np.stack(got, axis=1), expected[0])
    return expected


def _assert_states_match(got, expected):
    """got matches expected, (N, T+1, n) each, within 1e-12 of each stage's largest |state|."""
    for t in range(expected.shape[1]):
        scale = np.abs(expected[:, t]).max()
        np.testing.assert_allclose(got[:, t], expected[:, t], rtol=0, atol=1e-12 * scale)


def test_next_batch_is_the_rollout_of_the_updated_policy(monkeypatch):
    import kernelpi.offline as offline

    rollouts = []
    original = offline.rollout
    monkeypatch.setattr(offline, "rollout", lambda *a, **kw: rollouts.append(1) or original(*a, **kw))
    _, policy, records, calls = _recording_sweep(monkeypatch)
    assert len(rollouts) == 1  # the zero-control rollout before iteration 0
    T = 8
    X0 = calls[T - 1][3]
    for k in range(len(records) - 1):
        stages = [
            StagePolicy(policy.stages[t].dictionary, records[k].stages[t].c_new) for t in range(T)
        ]
        sweep = calls[(k + 1) * T : (k + 2) * T]  # stages T - 1 .. 0 of iteration k + 1
        _assert_sweep_reads_the_rollout(sweep, KernelPolicy(policy.kernel, stages), X0)
        assert records[k + 1].cost == records[k].cost_after


@pytest.mark.parametrize("stop", ["convergence_tol", "max_outer_iters"])
def test_the_returned_batch_is_the_rollout_of_the_returned_policy(stop):
    # the batch a run returns is the last one its sweeps kept: that of the
    # returned policy, from the drawn initial states bit for bit
    from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states
    from kernelpi.seeding import substreams

    scen = ScenarioConfig(
        n_cav=2, horizon=4, entry_offsets=(12.0, 14.0), position_jitter=1.0, speed_range=(4.0, 6.0)
    )
    scenario, learner, _, cost = build_intersection(scen)
    converge = stop == "convergence_tol"
    cfg = SolverConfig(
        delta_lr=8.0,
        max_outer_iters=400 if converge else 3,
        mc_samples=8,
        dict_size=4,
        convergence_tol=1e-9 if converge else 0.0,
    )
    sampler = lambda rng, N: sample_initial_states(scenario, rng, N)
    policy, records, batch = policy_iteration(learner, cost, sampler, cfg, horizon=4, seed=3)
    assert len(records) < 400 if converge else len(records) == 3
    X0 = sampler(substreams(3, ("initial-states", "dictionary"))["initial-states"], 8)
    assert batch.states[:, 0].tobytes() == X0.tobytes()
    _assert_states_match(batch.states, policy_rollout(learner, policy, X0)[0])


@pytest.mark.parametrize("given", [False, True], ids=["drawn", "given"])
def test_iteration_0_starts_from_the_rollout_of_the_entering_policy(monkeypatch, given):
    # iteration 0 takes its batch and cost from one kept tail over every
    # stage: a given policy is never rolled out, a drawn one only at zero
    # control to draw its dictionaries
    import kernelpi.offline as offline

    rollouts = []
    original = offline.rollout
    monkeypatch.setattr(offline, "rollout", lambda *a, **kw: rollouts.append(1) or original(*a, **kw))
    cfg, policy, records, calls = _recording_sweep(monkeypatch, max_iters=2)
    T = 8
    solver, X0 = calls[0][0], calls[T - 1][3]
    if given:
        entering = [StagePolicy(st.dictionary, st.coefficients.copy()) for st in policy.stages]
        warm = KernelPolicy(policy.kernel, list(entering))
        rollouts.clear()
        calls.clear()
        _, records, _ = run_policy_iteration(solver.sys, solver.spec, T, X0, cfg, policy=warm)
    else:
        entering = [StagePolicy.zero(solver.sys.m, st.dictionary) for st in policy.stages]
    assert len(rollouts) == (0 if given else 1)
    expected = _assert_sweep_reads_the_rollout(calls[:T], KernelPolicy(policy.kernel, entering), X0)
    reference = evaluate_cost_to_go(*expected, solver.spec).total_cost
    assert abs(records[0].cost - reference) <= 1e-12 * abs(reference)


def test_each_dictionary_compiles_its_anchors_once_per_run(monkeypatch):
    # cross-Gram matrices and tails all read the anchors a
    # dictionary compiled on first use
    import kernelpi.kernels as kernels

    calls = []

    class Counted(kernels._Anchors):
        __slots__ = ()

        def __init__(self, *args):
            calls.append(1)
            super().__init__(*args)

    monkeypatch.setattr(kernels, "_Anchors", Counted)
    _, policy, records = _small_rbf_run(max_iters=3)
    assert len(records) == 3
    assert len(calls) == policy.horizon


def test_tail_maps_and_stage_parts_are_built_once_per_run(monkeypatch):
    # every sweep starts from the run's one empty tail, whose maps the later
    # tails share, and each dictionary's lifted anchors are compiled into
    # those maps once: stages 1 .. T - 1 enter the sweeps' tails, and every
    # stage iteration 0's tail
    import kernelpi.costs as costs

    maps, lifts = [], []
    init, lift = costs._TailMaps.__init__, costs._TailMaps.lift
    monkeypatch.setattr(costs._TailMaps, "__init__", lambda self, *a: maps.append(1) or init(self, *a))
    monkeypatch.setattr(costs._TailMaps, "lift", lambda self, m: lifts.append(1) or lift(self, m))
    _, policy, records = _small_rbf_run(max_iters=3)
    assert len(records) == 3
    assert len(maps) == 1
    assert len(lifts) == policy.horizon


def test_each_stage_is_handed_its_successors_trajectory_under_the_updated_stages(monkeypatch):
    # the trajectory stage t is handed is the trial stage t + 1 kept: from the
    # batch rows X_{t+1} under the updated stages t + 1..T, as a fresh tail of
    # the updated policy simulates it; stage T - 1 gets the terminal cost
    import kernelpi.offline as offline

    learner, cost, policy, X0, _ = _penalty_instance(3)
    calls = []
    original = offline.solve_implicit_update

    def record(solver, c_old, tail, states, handed, stage_costs, curvature=0.0):
        calls.append((np.array(states), handed))
        return original(solver, c_old, tail, states, handed, stage_costs, curvature)

    monkeypatch.setattr(offline, "solve_implicit_update", record)
    cfg = SolverConfig(delta_lr=10.0, max_outer_iters=1, convergence_tol=0.0)
    policy, records, _ = run_policy_iteration(learner, cost, 4, X0, cfg, policy=policy)
    assert sum(r.accepted for r in records[0].stages) >= 2
    T = policy.horizon
    batch = [calls[T - 1 - t][0] for t in range(T)] + [calls[0][1].states()[:, 0]]
    for t in range(T):
        handed = calls[T - 1 - t][1]
        fresh = TailEvaluator(learner, cost, policy, t + 1).values(batch[t + 1])[1]
        np.testing.assert_allclose(handed.values, fresh.values, rtol=1e-12)
        np.testing.assert_allclose(handed.gradient(), fresh.gradient(), rtol=1e-10)


def test_each_stage_cost_handed_over_is_the_cost_specs_at_c_old(monkeypatch):
    # c0_t comes from the batch trajectory's stage-t cost, not from the spec
    _, policy, records, calls = _recording_sweep(monkeypatch, max_iters=2)
    for solver, c_old, _, states, _, stage_costs in calls:
        pi_old = cross_gram(policy.kernel, states, solver.dictionary) @ c_old
        expected = solver.spec.state_cost(states) + solver.spec.control_cost(pi_old)
        np.testing.assert_allclose(stage_costs, expected, rtol=1e-12)


def test_a_second_update_of_a_quadratic_stage_takes_its_curvature_step_in_one_tail_call():
    # with a linear kernel, one input and a terminal-cost tail, J is quadratic
    # with one curvature along every direction: the first update measures it
    # with the secant through its first trial, and the second update's first
    # trial is then g's root
    sys_, spec, states, _, tail, rng, solver_for = _quadratic_stage(
        seed=4, N=8, M=2, family="linear"
    )
    solver = solver_for(SolverConfig(delta_lr=4.0))
    c_old = rng.normal(size=(2, 1))
    first = _update(solver, c_old, tail, states)
    assert first.reason == "ok" and first.tail_calls == 2  # two trials
    theta = 2.0 * (spec.R + sys_.B.T @ spec.Q_F @ sys_.B).item() / states.shape[0]
    assert first.curvature == pytest.approx(theta, rel=1e-6)
    assert 0.5 * theta * 4.0 <= CURVATURE_GATE
    second = _update(solver, first.c_new, tail, states, first.curvature)
    assert second.reason == "ok" and second.accepted
    assert second.first_trial == "curvature" and second.tail_calls == 1
    assert second.objective_new < second.objective_old


def _recording_trials(monkeypatch):
    """Every _solve_secant call's entering curvature and workspace, in call order.

    Each workspace records its trials as (a, J(a)) in steps, and the
    curvature its result carries as curvature_left.
    """
    import kernelpi.offline as offline

    solves = []
    solve, trial = offline._solve_secant, offline._StageWorkspace.trial

    def record_solve(ws, J0, G, curvature=0.0):
        ws.steps, ws.objective_old = [], J0
        solves.append((curvature, ws))
        res = solve(ws, J0, G, curvature)
        ws.curvature_left = res.curvature
        return res

    def record_trial(ws, a):
        out = trial(ws, a)
        ws.steps.append((a, out[0]))
        return out

    monkeypatch.setattr(offline, "_solve_secant", record_solve)
    monkeypatch.setattr(offline._StageWorkspace, "trial", record_trial)
    return solves


def test_at_large_delta_every_first_trial_is_the_usual_one(monkeypatch):
    # no update here is accepted by one of its first two trials, and the
    # curvature each first trial shows puts theta delta / 2 far past the
    # gate: had one been kept, its step would not have been tried
    solves = _recording_trials(monkeypatch)
    sys_ = LinearSystem(A=[[1.5]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1e-6]], Q_F=[[1.0]])
    cfg = SolverConfig(delta_lr=1e9, max_outer_iters=20, mc_samples=20, convergence_tol=0.0)
    policy_iteration(
        sys_, spec, lambda rng, N: rng.uniform(-1.0, 1.0, size=(N, 1)), cfg, horizon=12
    )
    assert len(solves) == 20 * 12
    gates = []
    for _, ws in solves:
        if ws.steps:
            (a, Ja), J0 = ws.steps[0], ws.objective_old
            assert a == -ws.s0 * cfg.delta_lr / ws.p2
            theta = 2.0 * (Ja - J0 - ws.s0 * a) / (a * a * ws.p2)
            gates.append(0.5 * theta * cfg.delta_lr)
    assert np.median(gates) > 1e3 * CURVATURE_GATE


@pytest.mark.parametrize("gate", [1.0, 1e-3])
def test_a_missed_curvature_step_is_the_root_solves_first_point(monkeypatch, gate):
    # a curvature the stage does not have: its step a_c misses the stop rule
    # and bounds the bracket, and the next trial is the secant through
    # (0, s0) and (a_c, q(a_c)), capped at the usual first trial when a_c is
    # short of the root
    solves = _recording_trials(monkeypatch)
    _, _, states, solver_for, tail, c_old, _ = _penalty_stage(5)
    cfg = SolverConfig(delta_lr=10.0)
    solver = solver_for(cfg)
    theta = 2.0 * gate / cfg.delta_lr
    res = _update(solver, c_old, tail, states, theta)
    ((_, ws),) = solves
    J0, s0, p2, delta = ws.objective_old, ws.s0, ws.p2, cfg.delta_lr
    usual = -s0 * delta / p2
    (a_c, J_c), (a_next, _) = ws.steps[:2]
    assert a_c == -s0 / (p2 * (0.5 * theta + 1.0 / delta))
    assert res.first_trial == "curvature"
    q_c = (J_c - J0 + a_c * a_c * p2 / delta) / a_c
    secant = a_c - q_c * a_c / (q_c - s0)
    if q_c < 0:
        assert a_c < secant
        assert a_next == pytest.approx(min(secant, usual), rel=1e-12)
    else:
        assert 0.0 < a_next < a_c
        assert all(a < a_c for a, _ in ws.steps[1:])
        assert a_next == pytest.approx(secant, rel=1e-12)
    assert res.reason == "ok" and res.objective_new < res.objective_old
    assert res.c_new.tolist() == (c_old + ws.steps[-1][0] * ws.V).tolist()


def test_an_ok_update_after_three_trials_stores_its_curvature(monkeypatch):
    # the curvature an "ok" update shows is kept however many trials it took
    solves = _recording_trials(monkeypatch)
    _, _, states, solver_for, tail, c_old, _ = _penalty_stage(5)
    solver = solver_for(SolverConfig(delta_lr=10.0))
    res = _update(solver, c_old, tail, states)
    ((_, ws),) = solves
    assert res.reason == "ok" and res.first_trial == "usual" and len(ws.steps) == 3
    a, Ja = ws.steps[-1]
    assert res.curvature == 2.0 * (Ja - ws.objective_old - ws.s0 * a) / ((a * a) * ws.p2)
    assert res.curvature > 0.0


def test_an_update_leaves_its_solver_as_it_was_and_returns_its_curvature(monkeypatch):
    # theta goes into an update as an argument and comes back in its result,
    # so every update leaves its solver, fixed for the run, as it was; the
    # result carries the accepted step's theta when it is "ok" and 0 for any
    # other outcome, an accepted "inexact-secant" step's included
    import kernelpi.offline as offline

    solves = _recording_trials(monkeypatch)
    update = offline.solve_implicit_update
    reasons = []

    def checked(solver, *args):
        before, count = dict(vars(solver)), len(solves)
        res = update(solver, *args)
        assert vars(solver).keys() == before.keys()
        assert all(vars(solver)[key] is value for key, value in before.items())
        if res.reason == "ok":
            ((_, ws),) = solves[count:]
            a, Ja = ws.steps[-1]
            assert Ja == res.objective_new
            assert res.curvature == 2.0 * (Ja - res.objective_old - ws.s0 * a) / ((a * a) * ws.p2)
        else:
            assert res.curvature == 0.0
        assert res.accepted == (res.objective_new < res.objective_old)
        reasons.append(res.reason)
        return res

    monkeypatch.setattr(offline, "solve_implicit_update", checked)
    sys_ = LinearSystem(A=[[1.5]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1e-6]], Q_F=[[1.0]])
    cfg = SolverConfig(delta_lr=1e9, max_outer_iters=5, mc_samples=20, convergence_tol=0.0)
    policy_iteration(
        sys_, spec, lambda rng, N: rng.uniform(-1.0, 1.0, size=(N, 1)), cfg, horizon=12
    )
    assert len(reasons) == 5 * 12
    assert {"ok", "inexact-secant", "no-descent"} <= set(reasons)


def test_a_stage_without_curvature_starts_its_sweep_update_from_the_previous_stages(monkeypatch):
    # a stage whose own theta is 0 borrows the one stage t + 1 returned in
    # this sweep; the last stage, updated first, has only its own
    solves = _recording_trials(monkeypatch)
    _, policy, _ = _small_rbf_run(max_iters=3)
    T = policy.horizon
    assert len(solves) == 3 * T
    left = [0.0] * T
    borrowed = 0
    for k in range(3):
        for i, t in enumerate(range(T - 1, -1, -1)):
            curvature, ws = solves[k * T + i]
            own = left[t]
            expected = own if own != 0.0 or t == T - 1 else left[t + 1]
            assert curvature == expected
            borrowed += expected != own
            left[t] = ws.curvature_left
    assert borrowed > 0


def test_two_offline_sweeps_of_twenty_stages_take_at_most_120_tail_calls():
    # the shipped offline instance cut to 20 stages: with curvature steps
    # borrowed across stages and kept as the root solve's first point, two
    # sweeps take under three tail calls per stage update
    import dataclasses

    from kernelpi.cli import run_offline_mode
    from kernelpi.config import load_config

    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "offline_intersection.yaml")
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(cfg.scenario, horizon=20),
        solver=dataclasses.replace(cfg.solver, max_outer_iters=2),
    )
    records = run_offline_mode(cfg)[2]
    updates = [s for r in records for s in r.stages]
    assert len(updates) == 40
    assert sum(s.tail_calls for s in updates) <= 120
