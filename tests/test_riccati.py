import numpy as np
import pytest

from kernelpi.dynamics import LinearSystem, assemble_team_system, discretize_double_integrator
from kernelpi.riccati import lqr_cost, riccati_backward
from reference import policy_rollout, simulate_gain_cost


def scalar_system():
    return LinearSystem(A=[[1.0]], B=[[1.0]])


def test_zero_horizon_returns_terminal_weight():
    sol = riccati_backward(scalar_system(), [[1.0]], [[1.0]], [[3.0]], 0)
    assert sol.K == []
    np.testing.assert_array_equal(sol.P[0], [[3.0]])


def test_scalar_one_step_recursion():
    sol = riccati_backward(scalar_system(), [[1.0]], [[1.0]], [[1.0]], 1)
    assert sol.K[0][0, 0] == pytest.approx(0.5)
    assert sol.P[0][0, 0] == pytest.approx(1.5)


def test_zero_weights_give_zero_solution():
    sol = riccati_backward(scalar_system(), [[0.0]], [[1.0]], [[0.0]], 5)
    for K in sol.K:
        np.testing.assert_array_equal(K, [[0.0]])
    for P in sol.P:
        np.testing.assert_array_equal(P, [[0.0]])


def test_non_pd_control_weight_rejected():
    with pytest.raises(ValueError):
        riccati_backward(scalar_system(), [[1.0]], [[0.0]], [[1.0]], 3)


def test_lqr_cost_values():
    sol = riccati_backward(scalar_system(), [[1.0]], [[1.0]], [[1.0]], 1)
    assert lqr_cost(sol, [[0.0]]) == 0.0
    assert lqr_cost(sol, [[1.0]]) == pytest.approx(1.5)


def _team_instance():
    base = discretize_double_integrator(0.1)
    sys_ = assemble_team_system([base, base])
    n, m = sys_.n, sys_.m
    Q = np.eye(n)
    R = 0.5 * np.eye(m)
    QF = 2.0 * np.eye(n)
    return sys_, Q, R, QF


def test_value_matches_simulated_gain_cost():
    sys_, Q, R, QF = _team_instance()
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(20, sys_.n))
    sol = riccati_backward(sys_, Q, R, QF, 12)
    assert lqr_cost(sol, x0) == pytest.approx(
        simulate_gain_cost(sys_, sol, Q, R, QF, x0), rel=1e-9
    )


def test_per_sample_value_consistency():
    sys_, Q, R, QF = _team_instance()
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(6, sys_.n))
    T = 8
    sol = riccati_backward(sys_, Q, R, QF, T)
    gains = sol.K
    states, controls = policy_rollout(sys_, lambda t, X: -X @ gains[t].T, x0, T)
    for i in range(6):
        cost = 0.0
        for t in range(T):
            x, u = states[i, t], controls[i, t]
            cost += x @ Q @ x + u @ R @ u
        cost += states[i, T] @ QF @ states[i, T]
        assert cost == pytest.approx(float(x0[i] @ sol.P[0] @ x0[i]), rel=1e-9)


def test_first_order_optimality_of_gains():
    sys_, Q, R, QF = _team_instance()
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(10, sys_.n))
    T = 6
    sol = riccati_backward(sys_, Q, R, QF, T)
    base_cost = simulate_gain_cost(sys_, sol, Q, R, QF, x0)
    for trial in range(20):
        t = int(rng.integers(0, T))
        E = rng.normal(size=sol.K[t].shape)
        E *= 1e-2 / np.linalg.norm(E)
        gains = [K.copy() for K in sol.K]
        gains[t] = gains[t] + E
        perturbed = simulate_gain_cost(
            sys_,
            type(sol)(P=sol.P, K=gains),
            Q,
            R,
            QF,
            x0,
        )
        assert perturbed >= base_cost - 1e-12 * max(1.0, abs(base_cost))
