import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelpi.costs import (
    CollisionSpec,
    CostSpec,
    StateCost,
    TailEvaluator,
    collision_penalty,
    evaluate_cost_to_go,
    stage_cost,
    terminal_cost,
)
from kernelpi.dynamics import STATE_GUARD, DivergenceError, LinearSystem
from kernelpi.kernels import (
    Dictionary,
    KernelPolicy,
    KernelSpec,
    StagePolicy,
    cross_gram,
    eval_policy_batch,
)
from reference import empirical_stage_objective, hand_over, policy_rollout

PAIR_SPEC = CollisionSpec(safety_distance=1.0, softening=0.1)


def grid_extractor(x):
    # interpret consecutive state pairs as planar coordinates
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape[:-1] + (-1, 2))


# the displacement p1 - p2 of the planar points p1 = (x0, x1), p2 = (x2, x3)
DISPLACEMENT = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def pair_penalty():
    """collision_penalty of the two planar points as a StateCost, shifted to vanish at x = 0."""
    to_sums = np.array([[1.0, 0.0], [1.0, 0.0]])
    return StateCost(
        DISPLACEMENT, np.zeros(2), to_sums, PAIR_SPEC.safety_distance**2, PAIR_SPEC.softening
    )


def bowl_penalty():
    """The pair penalty plus k |p1 - p2|^2; k = d_safe^2 / softening^2 keeps it >= 0."""
    k = PAIR_SPEC.safety_distance**2 / PAIR_SPEC.softening**2
    to_sums = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, k], [0.0, k]])
    return StateCost(
        np.hstack([DISPLACEMENT, DISPLACEMENT]),
        np.zeros(4),
        to_sums,
        PAIR_SPEC.safety_distance**2,
        PAIR_SPEC.softening,
    )


def test_collision_single_vehicle_is_zero():
    assert collision_penalty(np.array([[1.0, 2.0]]), PAIR_SPEC) == 0.0


def test_collision_coincident_pair():
    pos = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert collision_penalty(pos, PAIR_SPEC) == pytest.approx(10.0)


def test_collision_two_meters_apart():
    pos = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert collision_penalty(pos, PAIR_SPEC) == pytest.approx(1.0 / 4.1, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 9999), V=st.integers(2, 5))
def test_collision_counts_pairs_and_permutes(seed, V):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-5, 5, size=(V, 2))
    val = collision_penalty(pos, PAIR_SPEC)
    manual = sum(
        PAIR_SPEC.safety_distance**2 / (np.sum((pos[i] - pos[j]) ** 2) + PAIR_SPEC.softening)
        for i in range(V)
        for j in range(i + 1, V)
    )
    assert val == pytest.approx(manual, rel=1e-12)
    perm = rng.permutation(V)
    assert collision_penalty(pos[perm], PAIR_SPEC) == pytest.approx(val, rel=1e-12)


def test_collision_monotone_in_distance():
    base = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    v0 = collision_penalty(base, PAIR_SPEC)
    closer = base.copy()
    closer[1, 0] = 2.0
    assert collision_penalty(closer, PAIR_SPEC) > v0


def test_collision_spec_validation():
    with pytest.raises(ValueError):
        CollisionSpec(safety_distance=0.0, softening=0.1)
    with pytest.raises(ValueError):
        CollisionSpec(safety_distance=1.0, softening=0.0)


def test_stage_cost_zero_state_zero_control():
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_F=np.eye(2))
    assert stage_cost(np.zeros(2), np.zeros(1), spec) == 0.0


def test_stage_cost_known_value():
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_F=np.eye(2))
    assert stage_cost([1.0, 2.0], [3.0], spec) == pytest.approx(14.0)


def test_stage_cost_additive_penalty():
    psi = pair_penalty()
    spec = CostSpec(Q=np.eye(4), R=np.eye(2), Q_F=np.eye(4), psi=psi)
    x = np.array([0.0, 0.0, 2.0, 0.0])  # the planar points are two meters apart
    u = np.array([1.0, -1.0])
    # the shift is the penalty at the zero state, where the points coincide: 1 / 0.1
    expected_psi = collision_penalty(grid_extractor(x), PAIR_SPEC) - 10.0
    assert psi(x) == pytest.approx(expected_psi, rel=1e-12)
    assert psi(np.zeros(4)) == 0.0
    assert stage_cost(x, u, spec) == pytest.approx(4.0 + 2.0 + 1.0 / 4.1 - 10.0, rel=1e-12)


def test_terminal_cost_values():
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_F=2.0 * np.eye(2))
    assert terminal_cost(np.zeros(2), spec) == 0.0
    assert terminal_cost([1.0, 1.0], spec) == pytest.approx(4.0)
    spec_pen = CostSpec(Q=np.eye(4), R=np.eye(2), Q_F=np.eye(4), psi_F=pair_penalty())
    assert terminal_cost(np.zeros(4), spec_pen) == 0.0
    x = np.array([0.0, 0.0, 2.0, 0.0])
    assert terminal_cost(x, spec_pen) == pytest.approx(4.0 + 1.0 / 4.1 - 10.0, rel=1e-12)
    # the terminal penalty is psi_F alone: psi does not reach the terminal cost
    spec_stage_only = CostSpec(Q=np.eye(4), R=np.eye(2), Q_F=np.eye(4), psi=pair_penalty())
    assert terminal_cost(x, spec_stage_only) == pytest.approx(4.0, rel=1e-12)


def _quad_spec(n, m):
    return CostSpec(Q=np.eye(n), R=np.eye(m), Q_F=np.eye(n))


def test_cost_to_go_zero_trajectories():
    table = evaluate_cost_to_go(np.zeros((3, 5, 2)), np.zeros((3, 4, 1)), _quad_spec(2, 1))
    np.testing.assert_array_equal(table.values, np.zeros((3, 5)))


def test_cost_to_go_single_step_base_case():
    states = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    controls = np.array([[[2.0]]])
    spec = _quad_spec(2, 1)
    table = evaluate_cost_to_go(states, controls, spec)
    expected_v1 = terminal_cost(states[0, 1], spec)
    expected_v0 = stage_cost(states[0, 0], controls[0, 0], spec) + expected_v1
    assert table.values[0, 1] == pytest.approx(expected_v1)
    assert table.values[0, 0] == pytest.approx(expected_v0)


def test_cost_to_go_matches_forward_sum():
    rng = np.random.default_rng(7)
    sys_ = LinearSystem(A=[[1.0, 0.1], [0.0, 0.95]], B=[[0.0], [0.1]])
    policy = lambda t, X: 0.3 * rng.standard_normal((X.shape[0], 1)) * 0 + 0.1 * X[:, :1]
    states, controls = policy_rollout(sys_, policy, rng.normal(size=(4, 2)), 3)
    # a proximity bump around the point (-1, 0.5), in stage and terminal cost
    bump = StateCost(np.eye(2), np.array([1.0, -0.5]), np.array([[1.0, 0.0], [1.0, 0.0]]), 0.5, 0.2)
    spec = CostSpec(Q=np.eye(2), R=[[0.5]], Q_F=2 * np.eye(2), psi=bump, psi_F=bump)
    table = evaluate_cost_to_go(states, controls, spec)
    forward = np.zeros(4)
    for t in range(3):
        forward += stage_cost(states[:, t], controls[:, t], spec)
    forward += terminal_cost(states[:, 3], spec)
    np.testing.assert_allclose(table.values[:, 0], forward, rtol=1e-8)
    assert table.total_cost == pytest.approx(forward.mean(), rel=1e-12)


def test_cost_to_go_nonnegative_with_nonnegative_penalties():
    rng = np.random.default_rng(11)
    sys_ = LinearSystem(A=np.eye(4), B=0.1 * np.eye(4)[:, :2])
    spec = CostSpec(
        Q=0.1 * np.eye(4),
        R=np.eye(2),
        Q_F=np.eye(4),
        psi=bowl_penalty(),
        psi_F=bowl_penalty(),
    )
    policy = lambda t, X: rng.normal(size=(X.shape[0], 2))
    table = evaluate_cost_to_go(*policy_rollout(sys_, policy, rng.normal(size=(5, 4)), 4), spec)
    assert (table.values >= 0).all()


def _stage_problem(seed=0, N=6, M=3, n=2, m=1):
    rng = np.random.default_rng(seed)
    sys_ = LinearSystem(A=rng.normal(size=(n, n)) * 0.3 + np.eye(n), B=rng.normal(size=(n, m)))
    spec = CostSpec(Q=np.eye(n), R=np.eye(m), Q_F=0.5 * np.eye(n))
    states = rng.normal(size=(N, n))
    pts = rng.normal(size=(M, n))
    kernel = KernelSpec(family="gaussian-rbf", length_scale=1.5)
    d = Dictionary(points=pts)
    cross = cross_gram(kernel, states, d)
    return sys_, spec, states, cross, rng


def test_empirical_stage_objective_zero_case():
    sys_, spec, states, cross, _ = _stage_problem()
    zero_states = np.zeros_like(states)
    cross_ones = np.ones_like(cross)
    val = empirical_stage_objective(
        np.zeros((cross.shape[1], sys_.m)),
        zero_states,
        lambda Y: np.zeros(Y.shape[0]),
        sys_,
        spec,
        cross_ones,
    )
    assert val == 0.0


def test_empirical_stage_objective_terminal_stage_hand_value():
    sys_, spec, _, _, rng = _stage_problem(seed=3, N=1, M=1)
    x = np.array([[0.4, -0.2]])
    pts = np.array([[1.0, 0.5]])
    kernel = KernelSpec(family="gaussian-rbf", length_scale=1.0)
    d = Dictionary(points=pts)
    cross = cross_gram(kernel, x, d)
    C = np.array([[0.8]])
    val = empirical_stage_objective(
        C, x, lambda Y: terminal_cost(Y, spec), sys_, spec, cross
    )
    u = cross[0] @ C
    y = sys_.A @ x[0] + sys_.B @ u
    expected = float(x[0] @ spec.Q @ x[0] + u @ spec.R @ u + y @ spec.Q_F @ y)
    assert val == pytest.approx(expected, rel=1e-12)


def test_empirical_stage_objective_quadratic_in_coefficients():
    # with no nonlinear penalty and a terminal continuation the objective is
    # an explicit quadratic in the coefficients; compare against it
    sys_, spec, states, cross, rng = _stage_problem(seed=9, N=8, M=4, n=3, m=2)
    K = cross
    A, B, Q, R, QF = sys_.A, sys_.B, spec.Q, spec.R, spec.Q_F
    N = states.shape[0]

    def closed_form(C):
        Pi = K @ C
        c0 = np.einsum("ni,ij,nj->n", states, Q, states)
        quad_u = np.einsum("ni,ij,nj->n", Pi, R + B.T @ QF @ B, Pi)
        lin = 2.0 * np.einsum("ni,ij,nj->n", states @ A.T, QF @ B, Pi)
        c1 = np.einsum("ni,ij,nj->n", states @ A.T, QF, states @ A.T)
        return float(np.mean(c0 + quad_u + lin + c1))

    tail = lambda Y: terminal_cost(Y, spec)
    for _ in range(5):
        C = rng.normal(size=(4, 2))
        val = empirical_stage_objective(C, states, tail, sys_, spec, cross)
        assert val == pytest.approx(closed_form(C), rel=1e-10)


def test_tail_evaluator_reports_divergent_sample():
    sys_ = LinearSystem(A=[[5.0]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    kernel = KernelSpec(family="linear")
    stages = [StagePolicy.zero(1, Dictionary(points=[[0.0]])) for _ in range(12)]
    policy = KernelPolicy(kernel, stages)
    tail = TailEvaluator(sys_, spec, policy, 0)
    cases = [
        (1e5, 2),  # inside the guard, crosses it after two steps of A = 5
        (np.nan, 0),
        (np.inf, 0),
        (STATE_GUARD * (1.0 + 1e-9), 0),
    ]
    for bad, stage in cases:
        with pytest.raises(DivergenceError) as exc:
            tail.values(np.array([[1.0], [bad], [-2.0]]))
        assert exc.value.sample_index == 1
        assert exc.value.stage == stage


def _intersection_problem(rng):
    from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states

    scen = ScenarioConfig(n_cav=2, horizon=4, entry_offsets=(12.0, 14.0), position_jitter=1.0)
    scenario, sys_, _, spec = build_intersection(scen)
    return sys_, spec, lambda N: sample_initial_states(scenario, rng, N)


def _quadratic_problem(rng):
    sys_ = LinearSystem(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.005], [0.1]])
    spec = CostSpec(Q=np.eye(2), R=[[0.3]], Q_F=np.eye(2))
    return sys_, spec, lambda N: rng.normal(size=(N, 2))


PROBLEMS = pytest.mark.parametrize(
    "problem", [_quadratic_problem, _intersection_problem], ids=["quadratic", "intersection"]
)


@pytest.mark.parametrize("family", ["linear", "polynomial", "gaussian-rbf"])
@PROBLEMS
def test_tail_evaluator_snapshot_matches_rollout_cost(family, problem):
    rng = np.random.default_rng(21)
    sys_, spec, sample = problem(rng)
    kernel = KernelSpec(family=family, length_scale=2.0)
    scale = {"linear": 1e-2, "polynomial": 1e-4, "gaussian-rbf": 0.2}[family]
    stages = [
        StagePolicy(Dictionary(points=sample(3)), rng.normal(size=(3, sys_.m)) * scale)
        for _ in range(4)
    ]
    policy = KernelPolicy(kernel, stages)
    x0 = sample(5)
    tail = TailEvaluator(sys_, spec, policy, 0)
    vals = tail.values(x0)[0]
    table = evaluate_cost_to_go(*policy_rollout(sys_, policy, x0), spec)
    np.testing.assert_allclose(vals, table.values[:, 0], rtol=1e-10)


@PROBLEMS
def test_stage_workspace_objective_matches_empirical_stage_objective(problem):
    # a trial along the solver's line c_old + a V is c0 + a c1 + a^2 c2 plus
    # the mean continuation value: the objective by its definition
    from kernelpi.offline import SolverConfig, StageSolver, _StageWorkspace

    for family, scale in [("linear", 1e-2), ("polynomial", 1e-4), ("gaussian-rbf", 0.2)]:
        rng = np.random.default_rng(4)
        sys_, spec, sample = problem(rng)
        kernel = KernelSpec(family=family, length_scale=2.0)
        d = Dictionary(points=sample(sys_.n))  # a full-rank Gram for the linear kernel too
        states = sample(9)
        cross = cross_gram(kernel, states, d)
        stage = StagePolicy(Dictionary(points=sample(3)), rng.normal(size=(3, sys_.m)) * scale)
        tail = TailEvaluator(sys_, spec, KernelPolicy(kernel, [stage] * 3), 1)
        c_old = rng.normal(size=(sys_.n, sys_.m)) * scale
        solver = StageSolver(kernel, d, SolverConfig(), spec, sys_)
        ws = _StageWorkspace(solver, c_old, tail, states, *hand_over(solver, c_old, tail, states))
        J0, G = ws.value_gradient()
        continuation = lambda Y: tail.values(Y)[0]
        expected = empirical_stage_objective(c_old, states, continuation, sys_, spec, cross)
        assert J0 == pytest.approx(expected, rel=1e-12)
        V, _, p2, s0 = ws.descent_direction(G)
        first = -s0 / p2  # the solver's first trial at delta = 1
        for a in (0.0, 0.01 * first, 0.5 * first, first, 4.0 * first):
            expected = empirical_stage_objective(c_old + a * V, states, continuation, sys_, spec, cross)
            assert ws.trial(a)[0] == pytest.approx(expected, rel=1e-12), (family, a)


def _spd(rng, n, scale):
    G = rng.normal(size=(n, n))
    return scale * (G @ G.T / n + 0.5 * np.eye(n))


def _reference_tail_values(sys_, spec, policy, start_stage, X):
    """The tail by its definition: x'Qx + u'Ru + psi(x) per stage, then the terminal cost."""
    total = np.zeros(X.shape[0])
    for t in range(start_stage, policy.horizon):
        outside = ~(np.sum(X * X, axis=1) <= STATE_GUARD**2)
        if outside.any():
            raise DivergenceError("reference", sample_index=int(np.argmax(outside)), stage=t)
        U = eval_policy_batch(policy, t, X)
        total += np.einsum("ni,ij,nj->n", X, spec.Q, X) + np.einsum("ni,ij,nj->n", U, spec.R, U)
        if spec.psi is not None:
            total += spec.psi(X)
        X = X @ sys_.A.T + U @ sys_.B.T
    total += np.einsum("ni,ij,nj->n", X, spec.Q_F, X)
    if spec.psi_F is not None:
        total += spec.psi_F(X)
    return total


def _tail_case(family, penalty, seed=5):
    """A four-stage kernel policy on the two-vehicle crossing with non-diagonal SPD weights."""
    from kernelpi.intersection import ScenarioConfig, build_intersection, sample_initial_states

    rng = np.random.default_rng(seed)
    scen = ScenarioConfig(n_cav=2, horizon=4, entry_offsets=(12.0, 14.0), position_jitter=1.0)
    scenario, sys_, _, scenario_cost = build_intersection(scen)
    psi, psi_F = {
        "intersection": (scenario_cost.psi, scenario_cost.psi_F),
        "direct": (pair_penalty(), bowl_penalty()),
        "none": (None, None),
    }[penalty]
    n, m = sys_.n, sys_.m
    spec = CostSpec(
        Q=_spd(rng, n, 1e-2), R=_spd(rng, m, 0.3), Q_F=_spd(rng, n, 1e-1), psi=psi, psi_F=psi_F
    )
    kernel = KernelSpec(family=family, length_scale=2.0, degree=2, offset=1.0)
    scale = {"linear": 1e-2, "polynomial": 1e-4, "gaussian-rbf": 0.2}[family]
    sample = lambda N: sample_initial_states(scenario, rng, N)
    stages = [
        StagePolicy(Dictionary(points=sample(3), stage=t), rng.normal(size=(3, m)) * scale)
        for t in range(4)
    ]
    return sys_, spec, KernelPolicy(kernel, stages), sample


FAMILIES = pytest.mark.parametrize("family", ["gaussian-rbf", "polynomial", "linear"])
PENALTIES = pytest.mark.parametrize("penalty", ["intersection", "direct", "none"])


@FAMILIES
@PENALTIES
def test_tail_evaluator_matches_a_plain_reference_loop(family, penalty):
    sys_, spec, policy, sample = _tail_case(family, penalty)
    X = sample(7)
    for start in (0, 2, 4):
        vals = TailEvaluator(sys_, spec, policy, start).values(X)[0]
        ref = _reference_tail_values(sys_, spec, policy, start, X)
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)


@FAMILIES
@PENALTIES
def test_tail_evaluator_guard_names_the_reference_sample_and_stage(family, penalty):
    sys_, spec, policy, sample = _tail_case(family, penalty)
    unstable = LinearSystem(A=3.0 * np.eye(sys_.n), B=sys_.B)
    X = sample(5)
    X[3] = 2.0e5 / np.linalg.norm(X[3]) * X[3]  # inside the guard; out after one step of A
    with pytest.raises(DivergenceError) as ref:
        _reference_tail_values(unstable, spec, policy, 1, X)
    assert ref.value.sample_index == 3 and ref.value.stage > 1
    with pytest.raises(DivergenceError) as exc:
        TailEvaluator(unstable, spec, policy, 1).values(X)
    assert (exc.value.sample_index, exc.value.stage) == (ref.value.sample_index, ref.value.stage)


def test_tail_evaluator_factorizes_no_matrix(monkeypatch):
    # the cost factors belong to the CostSpec, built once; a tail only stacks them
    sys_, spec, policy, sample = _tail_case("gaussian-rbf", "intersection")

    def refuse(*args, **kwargs):
        raise AssertionError("a tail factorized a matrix")

    for name in ("cholesky", "eig", "eigh", "inv", "qr", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    TailEvaluator(sys_, spec, policy, 1).values(sample(4))


def _per_stage_tail_values(sys_, spec, policy, start_stage, X):
    """The tail stage by stage: each stage's whole cost through the spec's StateCosts."""
    total = np.zeros(X.shape[0])
    for t in range(start_stage, policy.horizon):
        U = eval_policy_batch(policy, t, X)
        total += spec.state_cost(X) + spec.control_cost(U)
        X = X @ sys_.A.T + U @ sys_.B.T
    return total + spec.final_cost(X)


@FAMILIES
@pytest.mark.parametrize("penalty", ["intersection", "none"])
def test_fused_tail_values_match_the_per_stage_formula(family, penalty):
    # the fused loop keeps each stage's sums of squares and applies the cost's
    # nonlinear rest once per call; the kept trajectory holds the same values
    sys_, spec, policy, sample = _tail_case(family, penalty)
    X = sample(6)
    for start in (0, 2, 4):
        tail = TailEvaluator(sys_, spec, policy, start)
        ref = _per_stage_tail_values(sys_, spec, policy, start, X)
        values, path = tail.values(X)
        np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(path.values, values)


@FAMILIES
@pytest.mark.parametrize("penalty", ["intersection", "none"])
@pytest.mark.parametrize("start", [0, 2, 4], ids=["full", "partial", "empty"])
def test_tail_slopes_match_central_differences(family, penalty, start):
    # the backward pass over a kept trajectory gives dV/dy; its slopes along
    # B's columns and two random directions match central differences
    sys_, spec, policy, sample = _tail_case(family, penalty)
    tail = TailEvaluator(sys_, spec, policy, start)
    X = sample(5)
    D = np.vstack([sys_.B.T, np.random.default_rng(8).normal(size=(2, sys_.n))])
    _, path = tail.values(X)
    gradient = path.gradient()
    assert gradient.shape == X.shape
    # kept: the walk consumed the blocks, so a second call can only return it
    np.testing.assert_array_equal(path.gradient(), gradient)
    slopes = gradient @ D.T
    h = 1e-5
    central = np.stack(
        [(tail.values(X + h * d)[0] - tail.values(X - h * d)[0]) / (2.0 * h) for d in D], axis=1
    )
    np.testing.assert_allclose(slopes, central, rtol=1e-6, atol=1e-7 * np.abs(central).max())
    if start == 4 and penalty == "none":
        # an empty tail is the terminal cost x'Q_F x, whose slope is 2 x'Q_F d
        np.testing.assert_allclose(slopes, 2.0 * X @ spec.Q_F @ D.T, rtol=1e-12)


def _sweep_tail(sys_, spec, policy, start):
    """The tail from start built as a sweep builds it: each stage on the tail after it."""
    tail = TailEvaluator(sys_, spec, policy, policy.horizon)
    for t in range(policy.horizon - 1, start - 1, -1):
        tail = TailEvaluator(sys_, spec, policy, t, tail)
    return tail


@FAMILIES
@pytest.mark.parametrize("start", [0, 2, 3, 4], ids=["full", "partial", "last-stage", "empty"])
def test_tail_built_on_rest_matches_a_fresh_tail_bit_for_bit(family, start):
    sys_, spec, policy, sample = _tail_case(family, "intersection")
    X = sample(6)
    fresh = TailEvaluator(sys_, spec, policy, start)
    swept = _sweep_tail(sys_, spec, policy, start)
    assert swept.stage_count == fresh.stage_count == policy.horizon - start
    (values, got), (expected_values, expected) = swept.values(X), fresh.values(X)
    np.testing.assert_array_equal(values, expected_values)
    np.testing.assert_array_equal(got.states(), expected.states())
    np.testing.assert_array_equal(got.gradient(), expected.gradient())


def test_rest_for_the_wrong_start_stage_is_rejected():
    sys_, spec, policy, _ = _tail_case("gaussian-rbf", "none")
    for start, rest_start in [(1, 3), (1, 1), (2, 1), (3, 3)]:
        with pytest.raises(ValueError):
            TailEvaluator(sys_, spec, policy, start, TailEvaluator(sys_, spec, policy, rest_start))
    shorter = KernelPolicy(policy.kernel, policy.stages[:3])
    with pytest.raises(ValueError):
        TailEvaluator(sys_, spec, policy, 2, TailEvaluator(sys_, spec, shorter, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["linear", "gaussian-rbf"])
def test_guard_names_the_first_crossing_when_later_stages_overflow(family):
    # x1 grows by 1e50 per stage whatever the control, so a row with x1 = 1e-100
    # crosses the guard entering stage 3 and overflows a few stages later
    sys_ = LinearSystem(A=[[1e50, 0.0], [0.0, 0.5]], B=[[0.0], [1.0]])
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_F=np.eye(2))
    kernel = KernelSpec(family=family, length_scale=1.0)
    rng = np.random.default_rng(0)
    stages = [
        StagePolicy(Dictionary(points=rng.normal(size=(2, 2)), stage=t), rng.normal(size=(2, 1)))
        for t in range(9)
    ]
    policy = KernelPolicy(kernel, stages)
    X = np.array([[0.0, 0.3], [1e-200, 0.1], [1e-100, -0.2], [-1e-100, 0.4]])
    tail = TailEvaluator(sys_, spec, policy, 0)
    with pytest.raises(DivergenceError) as exc:
        tail.values(X)
    assert (exc.value.sample_index, exc.value.stage) == (2, 3)


def _moved(policy, t, a, direction):
    """policy with stage t's coefficients moved by a times direction."""
    stages = list(policy.stages)
    stages[t] = StagePolicy(stages[t].dictionary, stages[t].coefficients + a * direction)
    return KernelPolicy(policy.kernel, stages)


@FAMILIES
@pytest.mark.parametrize("start", [0, 3], ids=["full", "last-stage"])
def test_a_tail_on_a_line_matches_a_fresh_tail_at_the_moved_coefficients(family, start):
    # a step along the direction moves the first stage by one axpy of its
    # control part; the simulation, its stage costs and its walk back are
    # those of a tail compiled at c + a d, and a settled line is that tail
    sys_, spec, policy, sample = _tail_case(family, "intersection")
    X = sample(6)
    first = policy.stages[start]
    direction = np.random.default_rng(2).normal(size=first.coefficients.shape) * 0.1
    rest = TailEvaluator(sys_, spec, policy, start + 1)
    cross = cross_gram(policy.kernel, X, first.dictionary)
    for a in (0.0, 0.4, -1.5):
        line = TailEvaluator(sys_, spec, policy, start, rest, direction)
        assert line.stage_count == policy.horizon - start
        fresh = TailEvaluator(sys_, spec, _moved(policy, start, a, direction), start)
        values, path = line.values(X, step=a, kernel_values=cross)
        expected = fresh.values(X)[1]
        np.testing.assert_allclose(values, expected.values, rtol=1e-12)
        np.testing.assert_allclose(path.states(), expected.states(), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(path.stage_costs, expected.stage_costs, rtol=1e-12)
        np.testing.assert_allclose(path.gradient(), expected.gradient(), rtol=1e-10)
        settled = line.settle(a)
        np.testing.assert_allclose(settled.values(X)[0], fresh.values(X)[0], rtol=1e-12)
        with pytest.raises(ValueError):
            settled.values(X, step=1.0)


@pytest.mark.parametrize("penalty", ["intersection", "none"])
def test_a_trajectory_keeps_each_stages_cost_through_its_walk_back(penalty):
    # without a penalty of_sums hands back a view of the blocks, which the
    # walk back overwrites: the kept stage costs must not be that view
    sys_, spec, policy, sample = _tail_case("gaussian-rbf", penalty)
    X = sample(5)
    path = TailEvaluator(sys_, spec, policy, 1).values(X)[1]
    states = path.states()
    assert path.stage_costs.shape == (3, 5)
    for i, t in enumerate(range(1, 4)):
        U = eval_policy_batch(policy, t, states[:, i])
        expected = spec.state_cost(states[:, i]) + spec.control_cost(U)
        np.testing.assert_allclose(path.stage_costs[i], expected, rtol=1e-12)
    kept = path.stage_costs.copy()
    path.gradient()
    np.testing.assert_array_equal(path.stage_costs, kept)
    np.testing.assert_allclose(
        path.values, kept.sum(axis=0) + spec.final_cost(states[:, -1]), rtol=1e-12
    )


@pytest.mark.parametrize("pairs", [4, 0])
def test_of_sums_in_the_block_layout_matches_the_row_layout_bit_for_bit(pairs):
    # a tail reads its sums as (stage, sum, row), the layout of its blocks;
    # the cost is the one the (stage, row, sum) formula gives, bit for bit
    rng = np.random.default_rng(6)
    to_sums = np.zeros((2 * pairs + 3, pairs + 1))
    for p in range(pairs):
        to_sums[2 * p : 2 * p + 2, p] = 1.0
    to_sums[2 * pairs :, pairs] = rng.uniform(0.5, 2.0, size=3)
    cost = StateCost(
        rng.normal(size=(5, to_sums.shape[0])), rng.normal(size=to_sums.shape[0]), to_sums, 4.0, 0.1
    )
    assert cost.shift != 0.0
    for shape in [(49, pairs + 1, 50), (3, pairs + 1, 1)]:
        blocks = rng.uniform(0.0, 50.0, size=shape)  # (stage, sum, row)
        rows = blocks.swapaxes(1, 2)  # the view the row-layout formula read
        expected = rows[..., -1]
        if pairs:
            expected = expected + (1.0 / (rows[..., :-1] + cost.softening)) @ cost.pair_weights
        expected = expected - cost.shift
        np.testing.assert_array_equal(cost.of_sums(blocks), expected)


@FAMILIES
def test_a_kept_trajectory_outlives_later_trials_bit_for_bit(family):
    # later tail calls leave a kept trajectory as it was
    sys_, spec, policy, sample = _tail_case(family, "intersection")
    tail = TailEvaluator(sys_, spec, policy, 1)
    X = sample(6)
    kept = tail.values(X)[1]
    for _ in range(4):
        tail.values(sample(6))
    fresh = TailEvaluator(sys_, spec, policy, 1).values(X)[1]
    np.testing.assert_array_equal(kept.values, fresh.values)
    np.testing.assert_array_equal(kept.states(), fresh.states())
    gradient = kept.gradient()
    np.testing.assert_array_equal(gradient, fresh.gradient())
    # the walk consumed its blocks; the states and gradient stay
    tail.values(sample(6))
    np.testing.assert_array_equal(kept.states(), fresh.states())
    np.testing.assert_array_equal(kept.gradient(), gradient)


@FAMILIES
@PENALTIES
def test_a_trajectorys_terminal_part_is_an_empty_tails_simulation_bit_for_bit(family, penalty):
    # a sweep hands its last stage the batch trajectory's terminal part in
    # place of simulating the final rows through an empty tail
    sys_, spec, policy, sample = _tail_case(family, penalty)
    X = sample(6)
    path = TailEvaluator(sys_, spec, policy, 0).values(X)[1]
    part = path.terminal()
    fresh = TailEvaluator(sys_, spec, policy, 4).values(path.states()[:, -1])[1]
    assert part.stage_count == 0
    np.testing.assert_array_equal(part.values, fresh.values)
    np.testing.assert_array_equal(part.states(), fresh.states())
    np.testing.assert_array_equal(part.gradient(), fresh.gradient())
    # walking the part back leaves the trajectory it came from as it was
    whole = TailEvaluator(sys_, spec, policy, 0).values(X)[1]
    np.testing.assert_array_equal(path.values, whole.values)
    np.testing.assert_array_equal(path.gradient(), whole.gradient())
