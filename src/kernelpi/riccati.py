"""Finite-horizon LQR ground truth via the backward matrix recursion.

Used as an independent oracle when the nonlinear penalties are disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LinearSystem

__all__ = ["RiccatiSolution", "riccati_backward", "lqr_cost"]


@dataclass
class RiccatiSolution:
    """Value matrices P_0..P_T and gains K_0..K_{T-1} for u_t = -K_t x_t."""

    P: list
    K: list

    @property
    def horizon(self) -> int:
        return len(self.K)


def riccati_backward(sys: LinearSystem, Q, R, Q_F, T: int) -> RiccatiSolution:
    """Standard backward value recursion for the finite-horizon LQR problem."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    Q_F = np.atleast_2d(np.asarray(Q_F, dtype=float))
    if T < 0:
        raise ValueError("horizon must be >= 0")
    if np.linalg.eigvalsh(R).min() <= 0:
        raise ValueError("R must be positive definite")
    A, B = sys.A, sys.B
    P = [None] * (T + 1)
    K = [None] * T
    P[T] = Q_F.copy()
    for t in range(T - 1, -1, -1):
        BtP = B.T @ P[t + 1]
        S = R + BtP @ B
        K[t] = np.linalg.solve(S, BtP @ A)
        P[t] = Q + A.T @ P[t + 1] @ A - A.T @ P[t + 1] @ B @ K[t]
        P[t] = 0.5 * (P[t] + P[t].T)
    return RiccatiSolution(P, K)


def lqr_cost(sol: RiccatiSolution, x0_batch) -> float:
    """Batch-mean optimal cost x0' P_0 x0."""
    X0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    return float(np.einsum("ni,ij,nj->n", X0, sol.P[0], X0).mean())

