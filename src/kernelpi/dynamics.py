"""Stacked discrete-time team dynamics and batched zero-control rollouts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "LinearSystem",
    "TrajectoryBatch",
    "DivergenceError",
    "STATE_GUARD",
    "check_guard",
    "check_norms",
    "discretize_double_integrator",
    "assemble_team_system",
    "step",
    "rollout",
]

# Any state whose norm exceeds this aborts a simulation as divergent.
STATE_GUARD = 1.0e6


class DivergenceError(RuntimeError):
    """A trajectory left the finite / bounded region during simulation."""

    def __init__(self, message: str, sample_index: Optional[int] = None, stage: Optional[int] = None):
        super().__init__(message)
        self.sample_index = sample_index
        self.stage = stage


@dataclass
class LinearSystem:
    """Stacked team system x+ = A x + B u."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B row count must match A")
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValueError("system matrices must be finite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def discretize_double_integrator(dt: float) -> LinearSystem:
    """Exact zero-order-hold discretization of p' = v, v' = u on state (p, v).

    p+ = p + v dt + u dt^2/2 and v+ = v + u dt; exact for piecewise-constant u.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    return LinearSystem(A, B)


def assemble_team_system(subsystems: Sequence[LinearSystem]) -> LinearSystem:
    """Block-diagonal stacking of member systems; member inputs fill B's columns in order."""
    if len(subsystems) == 0:
        raise ValueError("need at least one subsystem")
    n = sum(s.n for s in subsystems)
    m = sum(s.m for s in subsystems)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    r = c = 0
    for s in subsystems:
        A[r : r + s.n, r : r + s.n] = s.A
        B[r : r + s.n, c : c + s.m] = s.B
        r += s.n
        c += s.m
    return LinearSystem(A, B)


def step(sys: LinearSystem, x, u) -> np.ndarray:
    """One transition x+ = A x + B u with shape checks and the divergence guard.

    A next state that is non-finite or whose norm exceeds STATE_GUARD raises
    a DivergenceError: the rule rollout and the tail simulation apply.
    """
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if x.shape[0] != sys.n:
        raise ValueError(f"state has dimension {x.shape[0]}, expected {sys.n}")
    if u.shape[0] != sys.m:
        raise ValueError(f"control has dimension {u.shape[0]}, expected {sys.m}")
    nxt = sys.A @ x + sys.B @ u
    if not nxt @ nxt <= STATE_GUARD**2:
        raise DivergenceError("state after step is non-finite or beyond the guard")
    return nxt


@dataclass
class TrajectoryBatch:
    """States of a Monte Carlo batch of trajectories, shape (N, T+1, n).

    rollout returns one under zero control, and run_policy_iteration the
    last one its sweeps kept, that of the policy it returns.
    """

    states: np.ndarray

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 3:
            raise ValueError("states must be a 3-d array")


def check_guard(X: np.ndarray, t: int, what: str = "trajectory") -> np.ndarray:
    """Squared row norms of the states X at stage t, after the divergence guard (check_norms)."""
    return check_norms(np.einsum("ij,ij->i", X, X)[None], t, what)[0]


def check_norms(sq: np.ndarray, t: int, what: str = "trajectory") -> np.ndarray:
    """The squared state norms sq, stage-major (stages, rows) from stage t, after the divergence guard.

    An entry that is not <= STATE_GUARD^2 (NaN, inf, or beyond the guard)
    raises a DivergenceError naming the first stage holding one and, in it,
    the first such sample.  One test of the largest norm covers every entry,
    NaN included, because the maximum of an array holding NaN is NaN; one
    argmin over the stage-major entries finds that first crossing.
    """
    if not sq.max(initial=0.0) <= STATE_GUARD**2:
        s, i = divmod(int(np.argmin(sq <= STATE_GUARD**2)), sq.shape[1])
        raise DivergenceError(
            f"{what} diverged at sample {i}, stage {t + s}", sample_index=i, stage=t + s
        )
    return sq


def rollout(sys: LinearSystem, x0_batch, horizon: int) -> TrajectoryBatch:
    """Simulate all samples forward under zero control for horizon steps.

    A non-finite or guard-exceeding state aborts with a DivergenceError
    naming the first offending sample and stage.
    """
    X0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    if X0.shape[1] != sys.n:
        raise ValueError(f"initial states have dimension {X0.shape[1]}, expected {sys.n}")
    states = np.empty((X0.shape[0], horizon + 1, sys.n))
    states[:, 0] = X0
    X = X0
    for t in range(horizon):
        check_guard(X, t)
        X = X @ sys.A.T
        states[:, t + 1] = X
    check_guard(X, horizon)
    return TrajectoryBatch(states)
