"""Stage, terminal, and collision-penalty costs, plus cost-to-go evaluation.

Penalty callables follow a batched contract: they accept arrays shaped
(..., n) and return values shaped (...,).  External penalties should be
written accordingly; the intersection scenario builders already are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dynamics import LinearSystem, TrajectoryBatch, check_guard
from .kernels import KernelPolicy, StageExpansion

__all__ = [
    "CostSpec",
    "CollisionSpec",
    "CostToGoTable",
    "collision_penalty",
    "stage_cost",
    "terminal_cost",
    "evaluate_cost_to_go",
    "TailEvaluator",
    "empirical_stage_objective",
]


def _sym_pd_check(M: np.ndarray, name: str, strict: bool = True) -> None:
    if not np.allclose(M, M.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(M)
    if strict and w.min() <= 0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {w.min():g})")
    if not strict and w.min() < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass
class CollisionSpec:
    """Soft proximity penalty parameters for a vehicle team."""

    safety_distance: float
    softening: float

    def __post_init__(self) -> None:
        if not self.safety_distance > 0:
            raise ValueError("safety_distance must be > 0")
        if not self.softening > 0:
            raise ValueError("softening must be > 0")


@lru_cache(maxsize=None)
def _pair_indices(V: int):
    iu, ju = np.triu_indices(V, k=1)
    return iu, ju


def collision_penalty(positions, spec: CollisionSpec):
    """Sum over unordered vehicle pairs of d_safe^2 / (distance^2 + softening).

    positions has shape (..., V, 2); the result drops the last two axes.
    A single vehicle yields zero.  The softening constant keeps the value
    finite even for coincident positions.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim < 2 or pos.shape[-1] != 2:
        raise ValueError("positions must have shape (..., V, 2)")
    V = pos.shape[-2]
    if V < 1:
        raise ValueError("need at least one vehicle")
    if V == 1:
        return np.zeros(pos.shape[:-2])
    iu, ju = _pair_indices(V)
    diff = pos[..., iu, :] - pos[..., ju, :]
    d2 = np.sum(diff * diff, axis=-1)
    terms = spec.safety_distance**2 / (d2 + spec.softening)
    return np.sum(terms, axis=-1)


@dataclass
class CostSpec:
    """Quadratic weights plus optional nonlinear stage/terminal penalties."""

    Q: np.ndarray
    R: np.ndarray
    Q_F: np.ndarray
    psi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    psi_F: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.Q_F = np.atleast_2d(np.asarray(self.Q_F, dtype=float))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def validate(self, strict: bool = True) -> None:
        """Check weight definiteness and that penalties vanish at the origin."""
        _sym_pd_check(self.Q, "Q", strict=strict)
        _sym_pd_check(self.R, "R", strict=True)
        _sym_pd_check(self.Q_F, "Q_F", strict=strict)
        zero = np.zeros(self.n)
        for name, fn in (("psi", self.psi), ("psi_F", self.psi_F)):
            if fn is not None:
                v = float(np.asarray(fn(zero)))
                if abs(v) > 1e-9:
                    raise ValueError(f"{name}(0) = {v:g}, expected 0")


def _quad(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    return ((x @ M) * x).sum(axis=-1)


def stage_cost(x, u, spec: CostSpec):
    """x'Qx + u'Ru + psi(x), batched over leading axes."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    out = _quad(x, spec.Q) + _quad(u, spec.R)
    if spec.psi is not None:
        out = out + spec.psi(x)
    return out


def terminal_cost(x, spec: CostSpec):
    """x'Q_F x + psi_F(x), batched over leading axes."""
    x = np.asarray(x, dtype=float)
    out = _quad(x, spec.Q_F)
    if spec.psi_F is not None:
        out = out + spec.psi_F(x)
    return out


@dataclass
class CostToGoTable:
    """Per-sample remaining-cost values V_t along simulated trajectories."""

    values: np.ndarray  # (N, T+1)

    @property
    def total_cost(self) -> float:
        return float(self.values[:, 0].mean())


def evaluate_cost_to_go(batch: TrajectoryBatch, spec: CostSpec) -> CostToGoTable:
    """Backward recursion V_t = stage cost + V_{t+1} along each trajectory.

    The terminal column equals the terminal cost at the sampled final states,
    and the mean of the first column is the empirical horizon cost.
    """
    N, T = batch.sample_count, batch.horizon
    V = np.empty((N, T + 1))
    V[:, T] = terminal_cost(batch.states[:, T], spec)
    for t in range(T - 1, -1, -1):
        V[:, t] = stage_cost(batch.states[:, t], batch.controls[:, t], spec) + V[:, t + 1]
    return CostToGoTable(V)


class TailEvaluator:
    """Continuation values by re-simulating stages start_stage..T under given policies.

    values(states) simulates each row forward under the policy tail and returns
    the accumulated stage costs plus the terminal cost.  Used as the successor
    evaluator when improving the policy at stage start_stage - 1.  The stage
    policies are snapshotted at construction; later mutation of the policy
    object is not reflected.
    """

    def __init__(self, sys: LinearSystem, spec: CostSpec, policy: KernelPolicy, start_stage: int):
        if not 0 <= start_stage <= policy.horizon:
            raise ValueError("start_stage out of range")
        self.sys = sys
        self.spec = spec
        self.start_stage = start_stage
        self._stages = [
            StageExpansion(policy.kernel, policy.stages[t])
            for t in range(start_stage, policy.horizon)
        ]

    def values(self, states) -> np.ndarray:
        X = np.atleast_2d(np.asarray(states, dtype=float))
        A_T = self.sys.A.T
        B_T = self.sys.B.T
        total = np.zeros(X.shape[0])
        for t, expansion in enumerate(self._stages, start=self.start_stage):
            sq = check_guard(X, t, "tail simulation")
            U = expansion.controls(X, sq)
            total += stage_cost(X, U, self.spec)
            X = X @ A_T + U @ B_T
        return total + terminal_cost(X, self.spec)


def empirical_stage_objective(
    candidate_coeffs: np.ndarray,
    states_at_t,
    successor_value: Callable[[np.ndarray], np.ndarray],
    sys: LinearSystem,
    spec: CostSpec,
    cross: np.ndarray,
) -> float:
    """Sample-average one-stage cost of candidate coefficients plus continuation.

    Controls at the sampled states are the cross-Gram matrix (sampled states
    by dictionary points, as cross_gram returns it) times the candidate
    coefficients; successor_value returns continuation values at the induced
    successor states.  This is the plain reference form of the objective the
    stage solver evaluates.
    """
    X = np.atleast_2d(np.asarray(states_at_t, dtype=float))
    C = np.asarray(candidate_coeffs, dtype=float)
    pi = cross @ C
    Y = X @ sys.A.T + pi @ sys.B.T
    vals = stage_cost(X, pi, spec) + np.asarray(successor_value(Y), dtype=float)
    return float(vals.mean())
