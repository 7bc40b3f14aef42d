import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernelpi.rls import PE_ALPHA, estimate, pe_check, rls_init, rls_update


def test_init_defaults():
    st_ = rls_init(2, 1, M0_scale=100.0)
    np.testing.assert_array_equal(st_.theta_hat, np.zeros((2, 3)))
    np.testing.assert_array_equal(st_.M, 100.0 * np.eye(3))
    assert st_.step_count == 0


def test_init_validation():
    with pytest.raises(ValueError):
        rls_init(2, 1, lam=0.0)
    with pytest.raises(ValueError):
        rls_init(2, 1, lam=1.5)
    with pytest.raises(ValueError):
        rls_init(2, 1, M0_scale=0.0)
    with pytest.raises(ValueError):
        rls_init(2, 1, theta0=np.zeros((2, 2)))


def _true_theta():
    A = np.array([[1.0, 0.1], [0.0, 0.9]])
    B = np.array([[0.005], [0.1]])
    return A, B, np.hstack([A, B])


def test_true_initialization_gives_zero_residuals():
    A, B, theta = _true_theta()
    st_ = rls_init(2, 1, theta0=theta)
    rng = np.random.default_rng(0)
    x = np.array([1.0, -0.5])
    for _ in range(10):
        u = rng.normal(size=1)
        xn = A @ x + B @ u
        st_, eps = rls_update(st_, x, u, xn)
        assert np.linalg.norm(eps) < 1e-12
        x = xn
    np.testing.assert_allclose(st_.theta_hat, theta, atol=1e-10)


def test_large_initial_covariance_moves_estimate_strongly():
    A, B, theta = _true_theta()
    st_ = rls_init(2, 1, M0_scale=1e3)
    x = np.array([1.0, 0.5])
    u = np.array([0.3])
    xn = A @ x + B @ u
    st2, eps_prior = rls_update(st_, x, u, xn)
    phi = np.concatenate([x, u])
    eps_post = xn - st2.theta_hat @ phi
    # the first high-uncertainty update nearly interpolates the data point
    assert np.linalg.norm(eps_post) < 1e-2 * np.linalg.norm(eps_prior)
    assert np.linalg.norm(st2.theta_hat - st_.theta_hat) > 0.1


def test_zero_regressor_leaves_estimate_and_scales_covariance():
    st_ = rls_init(2, 1, lam=0.5, M0_scale=10.0)
    st2, eps = rls_update(st_, np.zeros(2), np.zeros(1), np.zeros(2))
    np.testing.assert_array_equal(st2.theta_hat, st_.theta_hat)
    np.testing.assert_allclose(st2.M, st_.M / 0.5)
    np.testing.assert_array_equal(eps, np.zeros(2))


def test_posterior_residual_shrinks_on_exact_data():
    A, B, theta = _true_theta()
    st_ = rls_init(2, 1, M0_scale=1e4)
    rng = np.random.default_rng(1)
    x = np.array([0.5, 1.0])
    for _ in range(30):
        u = rng.normal(size=1)
        xn = A @ x + B @ u
        phi = np.concatenate([x, u])
        prior = np.linalg.norm(xn - st_.theta_hat @ phi)
        st_, _ = rls_update(st_, x, u, xn)
        post = np.linalg.norm(xn - st_.theta_hat @ phi)
        if prior > 1e-12:
            assert post < prior
        x = xn


def test_inverse_covariance_identity_lambda_one():
    A, B, theta = _true_theta()
    st_ = rls_init(2, 1, M0_scale=50.0)
    rng = np.random.default_rng(2)
    x = np.array([0.5, -1.0])
    for _ in range(25):
        u = rng.normal(size=1)
        xn = A @ x + B @ u
        phi = np.concatenate([x, u])
        Minv_before = np.linalg.inv(st_.M)
        st_, _ = rls_update(st_, x, u, xn)
        Minv_after = np.linalg.inv(st_.M)
        gap = np.linalg.norm(Minv_after - Minv_before - np.outer(phi, phi))
        assert gap <= 1e-8 * max(1.0, np.linalg.norm(Minv_before) + phi @ phi)
        x = xn


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 9999))
def test_covariance_monotone_under_lambda_one(seed):
    rng = np.random.default_rng(seed)
    st_ = rls_init(2, 1, M0_scale=float(rng.uniform(1.0, 100.0)))
    x = rng.normal(size=2)
    u = rng.normal(size=1)
    xn = rng.normal(size=2)
    st2, _ = rls_update(st_, x, u, xn)
    w = np.linalg.eigvalsh(st_.M - st2.M)
    assert w.min() >= -1e-10 * np.linalg.norm(st_.M)


def test_exact_data_convergence_within_fifty_updates():
    A, B, theta = _true_theta()
    st_ = rls_init(2, 1, M0_scale=1e8)
    rng = np.random.default_rng(3)
    x = np.array([1.0, 0.0])
    for s in range(50):
        u = rng.normal(size=1)
        xn = A @ x + B @ u
        st_, _ = rls_update(st_, x, u, xn)
        x = xn
    assert np.linalg.norm(st_.theta_hat - theta) < 1e-6


def test_residual_identity_on_exact_data():
    A, B, theta = _true_theta()
    st_ = rls_init(2, 1, M0_scale=10.0)
    rng = np.random.default_rng(4)
    x = np.array([0.2, 0.8])
    for _ in range(15):
        u = rng.normal(size=1)
        xn = A @ x + B @ u
        phi = np.concatenate([x, u])
        expected = (theta - st_.theta_hat) @ phi
        st_, eps = rls_update(st_, x, u, xn)
        np.testing.assert_allclose(eps, expected, atol=1e-10)
        x = xn


def test_update_rejects_non_finite():
    st_ = rls_init(1, 1)
    with pytest.raises(ValueError):
        rls_update(st_, [np.inf], [0.0], [0.0])


def test_estimate_partition():
    st_ = rls_init(4, 2)
    A_hat, B_hat = estimate(st_)
    assert A_hat.shape == (4, 4) and B_hat.shape == (4, 2)
    np.testing.assert_array_equal(A_hat, np.zeros((4, 4)))
    theta = np.arange(24.0).reshape(4, 6)
    st2 = rls_init(4, 2, theta0=theta)
    A_hat, B_hat = estimate(st2)
    np.testing.assert_array_equal(A_hat, theta[:, :4])
    np.testing.assert_array_equal(B_hat, theta[:, 4:])


def _fed(regressors, n, lam=1.0):
    """Estimator state after one update per regressor phi = [x; u], with x of length n."""
    regressors = np.atleast_2d(np.asarray(regressors, dtype=float))
    state = rls_init(n, regressors.shape[1] - n, lam=lam)
    for phi in regressors:
        state, _ = rls_update(state, phi[:n], phi[n:], np.zeros(n))
    return state


def test_pe_check_zero_regressors():
    res = pe_check(_fed(np.zeros((4, 3)), 2))
    assert not res.satisfied
    assert res.min_eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_pe_check_scaled_basis_cycle():
    scale = np.sqrt(PE_ALPHA) * 2.0
    res = pe_check(_fed(scale * np.vstack([np.eye(3), np.eye(3)]), 2))
    assert res.satisfied
    assert res.min_eigenvalue >= PE_ALPHA


def test_pe_check_rank_deficient_window():
    res = pe_check(_fed([[1.0, 1.0, 0.0]] * 5, 2))
    assert not res.satisfied


def test_pe_check_underfull_window():
    res = pe_check(rls_init(1, 1))
    assert res.status == "insufficient_data"
    assert res.min_eigenvalue is None
    assert not res.satisfied


@pytest.mark.parametrize("lam", [1.0, 0.95])
def test_info_is_inverse_covariance_without_discounted_prior(lam):
    rng = np.random.default_rng(3)
    n, m, k, M0_scale = 2, 1, 12, 10.0
    state = rls_init(n, m, lam=lam, M0_scale=M0_scale)
    for _ in range(k):
        state, _ = rls_update(state, rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n))
    expected = np.linalg.inv(state.M) - lam**k * np.eye(n + m) / M0_scale
    np.testing.assert_allclose(state.info, expected, rtol=1e-8, atol=1e-8)
