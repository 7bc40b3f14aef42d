"""Recursive least-squares identification of x+ = [A B] [x; u].

The estimator state carries the stacked parameter estimate, the covariance,
the information the estimate has used, and a forgetting factor.  Updates are
strictly sequential; apply them in data order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "PE_ALPHA",
    "RlsState",
    "PeResult",
    "rls_init",
    "rls_update",
    "pe_check",
    "estimate",
]

# The excitation check passes when the smallest eigenvalue of the used
# information is at least PE_ALPHA.
PE_ALPHA = 1.0e-3


@dataclass
class RlsState:
    theta_hat: np.ndarray  # (n, n+m)
    M: np.ndarray  # (n+m, n+m) covariance, symmetric PD
    info: np.ndarray  # (n+m, n+m) discounted sum of phi phi' over the updates
    lam: float
    n: int
    m: int
    step_count: int = 0


def rls_init(
    n: int,
    m: int,
    lam: float = 1.0,
    M0_scale: float = 1.0e5,
    theta0: Optional[np.ndarray] = None,
) -> RlsState:
    """Fresh estimator with covariance M0_scale * I and a zero (or given) estimate."""
    if not 0 < lam <= 1:
        raise ValueError("forgetting factor must lie in (0, 1]")
    if not M0_scale > 0:
        raise ValueError("M0_scale must be > 0")
    d = n + m
    if theta0 is None:
        theta = np.zeros((n, d))
    else:
        theta = np.array(theta0, dtype=float)
        if theta.shape != (n, d):
            raise ValueError(f"theta0 must have shape ({n}, {d})")
    return RlsState(
        theta_hat=theta, M=M0_scale * np.eye(d), info=np.zeros((d, d)), lam=lam, n=n, m=m
    )


def rls_update(state: RlsState, x_s, u_s, x_next):
    """One recursion step on the data triple (x_s, u_s, x_{s+1}).

    Returns the updated state and the a-priori residual
    eps = x_next - theta_hat phi.  The covariance is re-symmetrized after the
    update to suppress floating-point drift.  The information is updated as
    info <- lam (info + phi phi'), so in exact arithmetic it equals
    inv(M) - lam^k I / M0_scale after k updates: the inverse covariance
    without its discounted prior.
    """
    x_s = np.asarray(x_s, dtype=float).ravel()
    u_s = np.asarray(u_s, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    if x_s.shape[0] != state.n or x_next.shape[0] != state.n:
        raise ValueError("state dimension mismatch")
    if u_s.shape[0] != state.m:
        raise ValueError("control dimension mismatch")
    phi = np.concatenate([x_s, u_s])
    if not (np.isfinite(phi).all() and np.isfinite(x_next).all()):
        raise ValueError("non-finite data passed to the estimator")
    Mphi = state.M @ phi
    denom = 1.0 + float(phi @ Mphi)
    L = Mphi / denom
    eps = x_next - state.theta_hat @ phi
    theta_new = state.theta_hat + np.outer(eps, L)
    M_new = (state.M - np.outer(L, Mphi)) / state.lam
    M_new = 0.5 * (M_new + M_new.T)
    new_state = RlsState(
        theta_hat=theta_new,
        M=M_new,
        info=state.lam * (state.info + np.outer(phi, phi)),
        lam=state.lam,
        n=state.n,
        m=state.m,
        step_count=state.step_count + 1,
    )
    return new_state, eps


def estimate(state: RlsState):
    """Split the stacked estimate into (A_hat, B_hat)."""
    return state.theta_hat[:, : state.n].copy(), state.theta_hat[:, state.n :].copy()


@dataclass
class PeResult:
    status: str  # "satisfied" | "not_satisfied" | "insufficient_data"
    min_eigenvalue: Optional[float]

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"


def pe_check(state: RlsState) -> PeResult:
    """Compare the smallest eigenvalue of the estimator's used information to PE_ALPHA."""
    if state.step_count == 0:
        return PeResult(status="insufficient_data", min_eigenvalue=None)
    w_min = float(np.linalg.eigvalsh(state.info).min())
    status = "satisfied" if w_min >= PE_ALPHA else "not_satisfied"
    return PeResult(status=status, min_eigenvalue=w_min)
