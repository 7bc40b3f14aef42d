import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernelpi.costs import CostSpec
from kernelpi.dynamics import LinearSystem
from kernelpi.kernels import (
    Dictionary,
    KernelPolicy,
    KernelSpec,
    StagePolicy,
    cross_gram,
    eval_policy,
    eval_policy_batch,
    gram_matrix,
    kernel_matrix,
    median_length_scale,
)
from kernelpi.offline import SolverConfig, StageSolver

RBF = KernelSpec(family="gaussian-rbf", length_scale=1.0)
LIN = KernelSpec(family="linear")


def vectors(dim, lo=-10.0, hi=10.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim
    ).map(np.array)


def test_rbf_self_evaluation_is_one():
    for x in (np.zeros(3), np.array([1.0, -2.0]), np.array([5.0])):
        assert kernel_matrix(RBF, x[None], x[None])[0, 0] == pytest.approx(1.0, abs=0)


def test_rbf_known_value():
    x = np.array([0.0, 0.0])
    y = np.array([np.sqrt(2.0), 0.0])
    assert kernel_matrix(RBF, x[None], y[None])[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_linear_kernel_is_inner_product():
    assert kernel_matrix(LIN, [[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == pytest.approx(11.0)


def test_polynomial_kernel_value():
    spec = KernelSpec(family="polynomial", degree=2, offset=1.0)
    assert kernel_matrix(spec, [[1.0, 1.0]], [[2.0, 0.0]])[0, 0] == pytest.approx(9.0)


def test_kernel_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_matrix(RBF, [[1.0, 2.0]], [[1.0]])


def test_kernel_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        kernel_matrix(RBF, [[np.nan, 0.0]], [[0.0, 0.0]])


def test_invalid_kernel_specs():
    with pytest.raises(ValueError):
        KernelSpec(family="cubic")
    with pytest.raises(ValueError):
        KernelSpec(family="gaussian-rbf", length_scale=0.0)
    with pytest.raises(ValueError):
        KernelSpec(family="polynomial", degree=0)


def test_gram_single_point():
    d = Dictionary(points=np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(gram_matrix(RBF, d), [[1.0]])


def test_gram_two_points_known():
    d = Dictionary(points=np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0]]))
    e = np.exp(-1.0)
    np.testing.assert_allclose(gram_matrix(RBF, d), [[1.0, e], [e, 1.0]], rtol=1e-12)


def test_gram_ridge_shifts_eigenvalues():
    # the stage solver shifts the Gram matrix by ridge times its mean
    # diagonal, which is 1 for the rbf kernel
    rng = np.random.default_rng(0)
    d = Dictionary(points=rng.normal(size=(6, 3)))
    sys_ = LinearSystem(A=np.eye(3), B=np.ones((3, 1)))
    spec = CostSpec(Q=np.eye(3), R=np.eye(1), Q_F=np.eye(3))
    K_inv = StageSolver(RBF, d, SolverConfig(ridge=1e-8), spec, sys_).K_inv
    K = gram_matrix(RBF, d) + 1e-8 * np.eye(6)
    assert np.linalg.eigvalsh(K).min() >= 1e-8 - 1e-15
    np.testing.assert_allclose(K_inv @ K, np.eye(6), rtol=0, atol=1e-12)


def test_gram_empty_dictionary_rejected():
    d = Dictionary(points=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        gram_matrix(RBF, d)


def test_cross_gram_matches_gram_on_dictionary():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(5, 2))
    d = Dictionary(points=pts)
    np.testing.assert_allclose(cross_gram(RBF, pts, d), gram_matrix(RBF, d), rtol=1e-12)


def test_cross_gram_single_entries():
    d1 = Dictionary(points=np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(cross_gram(RBF, np.array([[1.0, 1.0]]), d1), [[1.0]])
    d2 = Dictionary(points=np.array([[0.0, 0.0], [np.sqrt(2.0), 0.0]]))
    np.testing.assert_allclose(
        cross_gram(RBF, np.array([[0.0, 0.0]]), d2), [[1.0, np.exp(-1.0)]], rtol=1e-12
    )


def test_cross_gram_empty_samples_rejected():
    d = Dictionary(points=np.array([[0.0]]))
    with pytest.raises(ValueError):
        cross_gram(RBF, np.zeros((0, 1)), d)


def _policy(points, coeffs, kernel=RBF):
    return KernelPolicy(kernel, [StagePolicy(Dictionary(points=np.asarray(points)), np.asarray(coeffs, dtype=float))])


def test_eval_policy_zero_coefficients():
    pol = _policy([[0.0, 0.0], [1.0, 1.0]], np.zeros((2, 3)))
    np.testing.assert_array_equal(eval_policy(pol, 0, [0.3, -0.2]), np.zeros(3))


def test_eval_policy_at_anchor_returns_row():
    v = np.array([0.5, -1.5])
    pol = _policy([[2.0, 3.0]], v[None, :])
    np.testing.assert_allclose(eval_policy(pol, 0, [2.0, 3.0]), v)


def test_eval_policy_two_anchor_mixture():
    pts = [[0.0, 0.0], [np.sqrt(2.0), 0.0]]
    pol = _policy(pts, np.eye(2))
    np.testing.assert_allclose(
        eval_policy(pol, 0, [0.0, 0.0]), [1.0, np.exp(-1.0)], rtol=1e-12
    )


def test_eval_policy_stage_out_of_range():
    pol = _policy([[0.0]], [[1.0]])
    with pytest.raises(ValueError):
        eval_policy(pol, 1, [0.0])
    with pytest.raises(ValueError):
        eval_policy(pol, -1, [0.0])


def test_stage_policy_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        StagePolicy(Dictionary(points=np.zeros((2, 1))), np.zeros((3, 1)))


def test_median_length_scale():
    pts = np.array([[0.0], [1.0], [2.0]])
    assert median_length_scale(pts) == pytest.approx(1.0)
    assert median_length_scale(np.array([[5.0]])) == 1.0
    assert median_length_scale(np.zeros((4, 2))) == 1.0


@settings(deadline=None, max_examples=100)
@given(x=vectors(3), y=vectors(3), family=st.sampled_from(["gaussian-rbf", "linear", "polynomial"]))
def test_kernel_symmetry(x, y, family):
    spec = KernelSpec(family=family, length_scale=1.7, degree=3, offset=0.5)
    a = kernel_matrix(spec, x[None], y[None])[0, 0]
    b = kernel_matrix(spec, y[None], x[None])[0, 0]
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000), m=st.integers(2, 8), dim=st.integers(1, 4))
def test_gram_positive_semidefinite(seed, m, dim):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=3.0, size=(m, dim))
    K = gram_matrix(RBF, Dictionary(points=pts))
    assert np.linalg.eigvalsh(K).min() >= -1e-10


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000), a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_eval_policy_linear_in_coefficients(seed, a, b):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(4, 2))
    c1 = rng.normal(size=(4, 2))
    c2 = rng.normal(size=(4, 2))
    x = rng.normal(size=2)
    mixed = eval_policy(_policy(pts, a * c1 + b * c2), 0, x)
    parts = a * eval_policy(_policy(pts, c1), 0, x) + b * eval_policy(_policy(pts, c2), 0, x)
    np.testing.assert_allclose(mixed, parts, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
@example(seed=1140)
def test_policy_batch_matches_cross_gram_product(seed):
    # the linear case checks the collapsed feedback matrix P' C against K C.
    # The paths sum in different orders, so they agree to rounding of the
    # terms, 1e-12 |K| @ |C| entrywise; a relative bound fails on entries
    # that nearly cancel (seed 1140: 9.2e-16 apart on a -5.4e-4 entry)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(5, 3))
    C = rng.normal(size=(5, 2))
    X = rng.normal(size=(7, 3))
    for kernel in (LIN, KernelSpec(family="polynomial", degree=3, offset=0.5), RBF):
        pol = _policy(pts, C, kernel)
        stacked = eval_policy_batch(pol, 0, X)
        K = cross_gram(kernel, X, Dictionary(points=pts))
        rounding = 1e-12 * (np.abs(K) @ np.abs(C))
        single = np.array([eval_policy(pol, 0, x) for x in X])
        for other in (K @ C, single):
            assert np.all(np.abs(stacked - other) <= rounding)
