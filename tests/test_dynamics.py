import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelpi.dynamics import (
    STATE_GUARD,
    DivergenceError,
    LinearSystem,
    assemble_team_system,
    check_norms,
    discretize_double_integrator,
    rollout,
    step,
)
from kernelpi.kernels import Dictionary, KernelPolicy, KernelSpec, StagePolicy
from reference import policy_rollout


def test_discretization_matrices():
    ss = discretize_double_integrator(0.1)
    np.testing.assert_allclose(ss.A, [[1.0, 0.1], [0.0, 1.0]])
    np.testing.assert_allclose(ss.B, [[0.005], [0.1]])


def test_discretization_free_drift():
    ss = discretize_double_integrator(0.1)
    np.testing.assert_allclose(ss.A @ [0.0, 1.0], [0.1, 1.0])


def test_discretization_with_acceleration():
    ss = discretize_double_integrator(0.1)
    nxt = ss.A @ [0.0, 1.0] + ss.B @ [2.0]
    np.testing.assert_allclose(nxt, [0.11, 1.2])


def test_discretization_rejects_bad_dt():
    with pytest.raises(ValueError):
        discretize_double_integrator(0.0)
    with pytest.raises(ValueError):
        discretize_double_integrator(-0.1)


def test_assemble_single_subsystem_unchanged():
    ss = discretize_double_integrator(0.2)
    sys_ = assemble_team_system([ss])
    np.testing.assert_array_equal(sys_.A, ss.A)
    np.testing.assert_array_equal(sys_.B, ss.B)


def test_assemble_two_double_integrators():
    ss = discretize_double_integrator(0.1)
    sys_ = assemble_team_system([ss, ss])
    assert sys_.n == 4 and sys_.m == 2
    np.testing.assert_array_equal(sys_.A[:2, :2], ss.A)
    np.testing.assert_array_equal(sys_.A[2:, 2:], ss.A)
    np.testing.assert_array_equal(sys_.A[:2, 2:], np.zeros((2, 2)))
    np.testing.assert_array_equal(sys_.B[:2, 0:1], ss.B)
    np.testing.assert_array_equal(sys_.B[2:, 1:2], ss.B)
    np.testing.assert_array_equal(sys_.B[:2, 1], np.zeros(2))


def test_assemble_dimension_arithmetic():
    ss = discretize_double_integrator(0.1)
    for k in (1, 3, 5):
        sys_ = assemble_team_system([ss] * k)
        assert sys_.n == 2 * k and sys_.m == k


def test_step_zero_maps_to_zero():
    ss = discretize_double_integrator(0.1)
    sys_ = assemble_team_system([ss])
    np.testing.assert_array_equal(step(sys_, [0.0, 0.0], [0.0]), [0.0, 0.0])


def test_step_identity_dynamics():
    sys_ = LinearSystem(A=np.eye(2), B=np.zeros((2, 1)))
    x = np.array([3.0, -4.0])
    np.testing.assert_array_equal(step(sys_, x, [9.0]), x)


def test_step_matches_discretization_example():
    sys_ = LinearSystem(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.005], [0.1]])
    np.testing.assert_allclose(step(sys_, [0.0, 1.0], [2.0]), [0.11, 1.2])


def test_step_dimension_mismatch():
    sys_ = LinearSystem(A=np.eye(2), B=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        step(sys_, [1.0], [0.0])
    with pytest.raises(ValueError):
        step(sys_, [1.0, 2.0], [0.0, 0.0])


def test_step_flags_non_finite_result():
    sys_ = LinearSystem(A=np.eye(2) * 1e308, B=np.zeros((2, 1)))
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError):
            step(sys_, [1e308, 0.0], [0.0])


def test_step_applies_the_state_guard():
    # one divergence rule: step stops where rollout and the tail stop
    sys_ = LinearSystem(A=[[10.0]], B=[[0.0]])
    assert step(sys_, [STATE_GUARD / 10.0], [0.0])[0] == STATE_GUARD
    for x in (STATE_GUARD / 10.0 * (1.0 + 1e-9), -1e7, np.inf, np.nan):
        with pytest.raises(DivergenceError):
            step(sys_, [x], [0.0])


def _drift_system():
    return LinearSystem(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.005], [0.1]])


def test_rollout_zero_everything():
    sys_ = _drift_system()
    batch = rollout(sys_, np.zeros((3, 2)), 4)
    assert batch.states.shape == (3, 5, 2)
    np.testing.assert_array_equal(batch.states, np.zeros((3, 5, 2)))


def test_rollout_matches_matrix_power_under_zero_policy():
    sys_ = _drift_system()
    x0 = np.array([[1.0, 2.0], [0.5, -1.0]])
    batch = rollout(sys_, x0, 5)
    for t in range(6):
        expected = x0 @ np.linalg.matrix_power(sys_.A, t).T
        np.testing.assert_allclose(batch.states[:, t], expected, atol=1e-12)


def test_rollout_composes_step():
    # the tests' policy rollout (reference.policy_rollout) under a kernel policy
    sys_ = _drift_system()
    kernel = KernelSpec(family="gaussian-rbf", length_scale=2.0)
    stages = [
        StagePolicy(Dictionary(points=np.array([[0.5, 1.0]])), np.array([[0.7]])),
        StagePolicy(Dictionary(points=np.array([[1.0, 0.0]])), np.array([[-0.3]])),
    ]
    policy = KernelPolicy(kernel, stages)
    x0 = np.array([[0.2, 1.1]])
    states, controls = policy_rollout(sys_, policy, x0)
    x = x0[0]
    for t in range(2):
        u = controls[0, t]
        np.testing.assert_allclose(states[0, t + 1], step(sys_, x, u), rtol=1e-12)
        x = states[0, t + 1]


def test_rollout_step_consistency():
    # the tests' policy rollout under a callable policy
    sys_ = _drift_system()
    rng = np.random.default_rng(4)
    policy = lambda t, X: 0.1 * np.sin(X[:, :1] + t)
    states, controls = policy_rollout(sys_, policy, rng.normal(size=(4, 2)), 6)
    for i in range(4):
        for t in range(6):
            np.testing.assert_allclose(
                states[i, t + 1],
                step(sys_, states[i, t], controls[i, t]),
                rtol=0,
                atol=1e-9,
            )


def test_rollout_superposition_under_zero_policy():
    sys_ = _drift_system()
    rng = np.random.default_rng(5)
    xa = rng.normal(size=(3, 2))
    xb = rng.normal(size=(3, 2))
    ba = rollout(sys_, xa, 7).states
    bb = rollout(sys_, xb, 7).states
    bab = rollout(sys_, xa + xb, 7).states
    np.testing.assert_allclose(bab, ba + bb, atol=1e-9)


def test_assembly_commutes_with_stepping():
    s1 = discretize_double_integrator(0.1)
    s2 = discretize_double_integrator(0.1)
    team = assemble_team_system([s1, s2])
    x = np.array([1.0, 2.0, -0.5, 0.3])
    u = np.array([0.7, -0.4])
    joint = step(team, x, u)
    part1 = s1.A @ x[:2] + s1.B @ u[:1]
    part2 = s2.A @ x[2:] + s2.B @ u[1:]
    np.testing.assert_allclose(joint, np.concatenate([part1, part2]), rtol=1e-14)


def test_rollout_divergence_reports_sample_and_stage():
    sys_ = LinearSystem(A=[[10.0]], B=[[0.0]])
    cases = [
        (1e5, 2),  # inside the guard, crosses it after two steps of A = 10
        (np.nan, 0),
        (np.inf, 0),
        (STATE_GUARD * (1.0 + 1e-9), 0),
    ]
    for bad, stage in cases:
        with pytest.raises(DivergenceError) as exc:
            rollout(sys_, np.array([[1.0], [bad], [-2.0]]), 30)
        assert exc.value.sample_index == 1
        assert exc.value.stage == stage
        assert f"sample 1, stage {stage}" in str(exc.value)


_NORMS = [0.0, 1.0, STATE_GUARD**2, STATE_GUARD**2 * (1.0 + 1e-9), np.inf, np.nan]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    table=st.integers(1, 5).flatmap(
        lambda rows: st.lists(
            st.lists(st.sampled_from(_NORMS), min_size=rows, max_size=rows), max_size=5
        )
    ),
    start=st.integers(0, 7),
    strided=st.booleans(),
)
def test_check_norms_names_the_first_crossing_of_a_stage_by_stage_loop(table, start, strided):
    rows = len(table[0]) if table else 1
    sq = np.array(table, dtype=float).reshape(len(table), rows)
    if strided:  # a stage-major view of a row-major array, as a tail's blocks hold them
        sq = np.ascontiguousarray(sq.T).T
    expected = None
    for s, stage in enumerate(sq):
        outside = np.flatnonzero(~(stage <= STATE_GUARD**2))
        if outside.size:
            expected = (int(outside[0]), start + s)
            break
    if expected is None:
        assert check_norms(sq, start) is sq
    else:
        with pytest.raises(DivergenceError) as exc:
            check_norms(sq, start)
        assert (exc.value.sample_index, exc.value.stage) == expected
        assert f"sample {expected[0]}, stage {expected[1]}" in str(exc.value)


def test_trajectory_batch_shape_validation():
    from kernelpi.dynamics import TrajectoryBatch

    assert TrajectoryBatch(states=np.zeros((2, 4, 3))).states.shape == (2, 4, 3)
    for bad in (np.zeros((4, 3)), np.zeros((1, 2, 4, 3))):
        with pytest.raises(ValueError):
            TrajectoryBatch(states=bad)
