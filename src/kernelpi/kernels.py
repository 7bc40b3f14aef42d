"""Kernels, Gram matrices, and kernel-expanded feedback policies.

A feedback policy is stored stage by stage as a dictionary of anchor states
together with a coefficient matrix.  Evaluating the policy at a state x sums
the coefficient rows weighted by the kernel values k(x, anchor_j), so the
policy output is linear in the coefficients for a fixed evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "Dictionary",
    "StagePolicy",
    "KernelPolicy",
    "StageExpansion",
    "kernel_matrix",
    "gram_matrix",
    "cross_gram",
    "eval_policy",
    "eval_policy_batch",
    "median_length_scale",
]

_FAMILIES = ("gaussian-rbf", "linear", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric positive-definite kernel on state space.

    length_scale applies to the gaussian-rbf family only; degree and offset
    apply to the polynomial family only.
    """

    family: str = "gaussian-rbf"
    length_scale: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}")
        if self.family == "gaussian-rbf" and not self.length_scale > 0:
            raise ValueError("length_scale must be > 0 for the gaussian-rbf kernel")
        if self.family == "polynomial" and int(self.degree) < 1:
            raise ValueError("polynomial degree must be a positive integer")


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"{name} must be a vector or a 2-d array of row vectors")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite entries")
    return pts


def _sq_norms(P: np.ndarray) -> np.ndarray:
    return np.sum(P * P, axis=1)


class _Anchors:
    """Anchor points compiled for their kernel family; each family's formula is written here only.

    values(X, norms, rows) returns the kernel values k(x, p_j) at the first
    `rows` rows of X.  Any later rows are tangents dx, in blocks of `rows`
    that match the state rows in order, and come back as the derivatives
    dk = (dk/dx) dx, so one product with the anchors serves both.  norms
    holds |x|^2 for each state row and then x . dx for each tangent row.  With
    c = 1/length_scale^2 the gaussian-rbf exponent -c |x - p|^2 / 2 is
    x.(c p) - c |p|^2/2 - c |x|^2/2, so the anchors are kept scaled by c with
    the halved scaled squared norms beside them.
    """

    __slots__ = ("spec", "scaled", "half_sq", "rate")

    def __init__(self, spec: KernelSpec, points: np.ndarray):
        self.spec = spec
        self.scaled = points
        if spec.family == "gaussian-rbf":
            self.rate = 1.0 / spec.length_scale**2
            self.scaled = self.rate * points
            self.half_sq = 0.5 * self.rate * _sq_norms(points)

    def values(self, X: np.ndarray, norms: np.ndarray, rows=None) -> np.ndarray:
        spec = self.spec
        K = X @ self.scaled.T
        N = X.shape[0] if rows is None else rows
        KX = K[:N]
        dK = K[N:].reshape(-1, N, K.shape[1]) if K.shape[0] > N else None
        if spec.family == "gaussian-rbf":
            KX -= self.half_sq
            KX -= (0.5 * self.rate) * norms[:N, None]
            np.minimum(KX, 0.0, out=KX)
            np.exp(KX, out=KX)
            if dK is not None:
                # dk = k (c p - c x) . dx
                dK -= (self.rate * norms[N:]).reshape(-1, N, 1)
                dK *= KX
        elif spec.family == "polynomial":
            base = KX + spec.offset
            if dK is not None:
                # dk = degree (x.p + offset)^(degree - 1) p . dx
                dK *= spec.degree * base ** (spec.degree - 1)
            np.power(base, spec.degree, out=KX)
        # the linear kernel x.p is its own derivative p.dx: the products are final
        return K


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Pairwise kernel evaluations: entry (i, j) is k(X[i], Y[j])."""
    X = _as_points(X, "X")
    Y = _as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return _Anchors(spec, Y).values(X, _sq_norms(X))


@dataclass
class Dictionary:
    """Ordered anchor states for one stage of a kernel policy."""

    points: np.ndarray
    stage: int = 0

    def __post_init__(self) -> None:
        self.points = _as_points(self.points, "dictionary points")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def gram_matrix(spec: KernelSpec, dictionary: Dictionary) -> np.ndarray:
    """Symmetric Gram matrix over the dictionary points.

    Duplicated points make it singular; the stage solver shifts it by its
    ridge before factoring (offline.StageSolver).
    """
    if dictionary.size == 0:
        raise ValueError("dictionary must be non-empty")
    K = kernel_matrix(spec, dictionary.points, dictionary.points)
    return 0.5 * (K + K.T)


def cross_gram(spec: KernelSpec, samples, dictionary: Dictionary) -> np.ndarray:
    """Kernel evaluations between sample states (rows) and dictionary points (columns)."""
    samples = _as_points(samples, "samples")
    if samples.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    return kernel_matrix(spec, samples, dictionary.points)


@dataclass
class StagePolicy:
    """One stage of a kernel policy: anchors plus an (M, m) coefficient matrix."""

    dictionary: Dictionary
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.ndim != 2:
            raise ValueError("coefficients must be a 2-d (anchors x inputs) matrix")
        if self.coefficients.shape[0] != self.dictionary.size:
            raise ValueError(
                f"coefficient rows ({self.coefficients.shape[0]}) must match "
                f"dictionary size ({self.dictionary.size})"
            )

    @classmethod
    def zero(cls, m: int, dictionary: Dictionary) -> "StagePolicy":
        return cls(dictionary, np.zeros((dictionary.size, m)))


@dataclass
class KernelPolicy:
    """Stage-indexed kernel policy over a finite horizon."""

    kernel: KernelSpec
    stages: list

    @property
    def horizon(self) -> int:
        return len(self.stages)


class StageExpansion:
    """One stage policy compiled for repeated evaluation at batches of states.

    The per-stage work that does not depend on the evaluation points is done
    once here: the anchors compiled for their family (_Anchors), and for the
    linear kernel the collapse of sum_j (x . p_j) c_j into the single
    feedback matrix P' C.  The stage is snapshotted; later mutation of its
    coefficients is not reflected.
    """

    __slots__ = ("anchors", "coeffs")

    def __init__(self, kernel: KernelSpec, stage: StagePolicy):
        points = stage.dictionary.points
        if kernel.family == "linear":
            self.anchors = None
            self.coeffs = points.T @ stage.coefficients
        else:
            self.anchors = _Anchors(kernel, points)
            self.coeffs = stage.coefficients

    def features(self, X: np.ndarray, norms: np.ndarray, rows=None) -> np.ndarray:
        """The factor of coeffs at the rows of X, given the squared norms of the state rows.

        That is X itself for the linear kernel, and the kernel values at the
        anchors otherwise.  Rows past the first `rows` are tangents and give
        the features' derivatives along them; norms then goes on with their
        products x . dx (_Anchors.values).
        """
        if self.anchors is None:
            return X
        return self.anchors.values(X, norms, rows)

    def controls(self, X: np.ndarray, row_sq_norms: np.ndarray) -> np.ndarray:
        """(N, m) controls at the rows of X, given their squared norms."""
        return self.features(X, row_sq_norms) @ self.coeffs


def _check_stage(policy: KernelPolicy, t: int) -> StagePolicy:
    if not 0 <= t < policy.horizon:
        raise ValueError(f"stage {t} out of range for horizon {policy.horizon}")
    return policy.stages[t]


def eval_policy_batch(policy: KernelPolicy, t: int, states) -> np.ndarray:
    """Evaluate the stage-t policy at a batch of states, returning (N, m) controls."""
    stage = _check_stage(policy, t)
    X = _as_points(states, "states")
    if X.shape[1] != stage.dictionary.dim:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {stage.dictionary.dim}")
    return StageExpansion(policy.kernel, stage).controls(X, _sq_norms(X))


def eval_policy(policy: KernelPolicy, t: int, x) -> np.ndarray:
    """Evaluate the stage-t policy at a single state, returning an m-vector."""
    x = np.asarray(x, dtype=float).ravel()
    return eval_policy_batch(policy, t, x[None, :])[0]


def median_length_scale(points) -> float:
    """Median pairwise distance of a point batch; falls back to 1.0 when degenerate."""
    pts = _as_points(points, "points")
    if pts.shape[0] < 2:
        return 1.0
    diffs = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt(np.sum(diffs * diffs, axis=-1))
    iu = np.triu_indices(pts.shape[0], k=1)
    vals = d[iu]
    vals = vals[vals > 0]
    if vals.size == 0:
        return 1.0
    return float(np.median(vals))
