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

    matrix is (n + 2, M): an augmented row [x | |x|^2 | 1] times it gives, at
    every anchor p_j, x . p_j for the linear kernel, the base x . p_j + offset
    for the polynomial kernel, and for the gaussian-rbf kernel the exponent
    -c |x - p_j|^2 / 2 = c x . p_j - c |x|^2 / 2 - c |p_j|^2 / 2 with
    c = 1/length_scale^2.  A tangent row [dx | 2 x . dx | 0] of such a row
    gives that product's exact derivative along dx, so one product serves
    both.  apply then turns the products into kernel values, and those of the
    tangent rows into the values' derivatives, in place.
    """

    __slots__ = ("spec", "matrix")

    def __init__(self, spec: KernelSpec, points: np.ndarray):
        self.spec = spec
        n = points.shape[1]
        self.matrix = np.zeros((n + 2, points.shape[0]))
        self.matrix[:n] = points.T
        if spec.family == "gaussian-rbf":
            rate = 1.0 / spec.length_scale**2
            self.matrix[:n] *= rate
            self.matrix[n] = -0.5 * rate
            self.matrix[n + 1] = -0.5 * rate * _sq_norms(points)
        elif spec.family == "polynomial":
            self.matrix[n + 1] = spec.offset

    def apply(self, K: np.ndarray, rows: int) -> np.ndarray:
        """Kernel values in place of the products K of the first `rows` augmented rows.

        Any later rows of K are the products of tangent rows, in blocks of
        `rows` that match the state rows in order; they become the
        derivatives dk = (dk/dx) dx of the values.
        """
        spec = self.spec
        KX = K[:rows]
        dK = K[rows:].reshape(-1, rows, K.shape[1]) if K.shape[0] > rows else None
        if spec.family == "gaussian-rbf":
            # rounding can lift the exponent of x = p_j above 0; k <= 1
            np.minimum(KX, 0.0, out=KX)
            np.exp(KX, out=KX)
            if dK is not None:
                dK *= KX  # dk = k c (p - x) . dx
        elif spec.family == "polynomial":
            if dK is not None:
                # dk = degree (x.p + offset)^(degree - 1) p . dx
                dK *= spec.degree * KX ** (spec.degree - 1)
            np.power(KX, spec.degree, out=KX)
        # the linear kernel x.p is its own derivative p.dx: the products are final
        return K

    def values(self, X: np.ndarray) -> np.ndarray:
        """The kernel values k(x, p_j) at the rows of X."""
        N, n = X.shape
        rows = np.empty((N, n + 2))
        rows[:, :n] = X
        rows[:, n] = _sq_norms(X)
        rows[:, n + 1] = 1.0
        return self.apply(rows @ self.matrix, N)


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Pairwise kernel evaluations: entry (i, j) is k(X[i], Y[j])."""
    X = _as_points(X, "X")
    Y = _as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    return _Anchors(spec, Y).values(X)


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

    def controls(self, X: np.ndarray) -> np.ndarray:
        """(N, m) controls at the rows of X."""
        features = X if self.anchors is None else self.anchors.values(X)
        return features @ self.coeffs


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
    return StageExpansion(policy.kernel, stage).controls(X)


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
