"""Independent numpy models that the benchmark checks the program against.

Nothing here imports kernelpi.  Dynamics, costs, kernel expansions, the
Riccati recursion and the initial-state draws are rebuilt from the plain
config values, so a check compares the program with a second implementation
of the method rather than with a stored copy of its own output.
"""

from __future__ import annotations

import numpy as np


def double_integrator(dt: float):
    """Exact zero-order-hold pair (A, B) for p' = v, v' = u on state (p, v)."""
    return np.array([[1.0, dt], [0.0, 1.0]]), np.array([[0.5 * dt * dt], [dt]])


def team_matrices(n_cav: int, n_hdv: int, dt: float, hdv_gain: float = 0.0):
    """Stacked (A, B) of a mixed team; CAVs come first and own the input columns.

    Each HDV relaxes its speed towards the mean CAV speed at rate hdv_gain,
    the coupling that the learner's block-diagonal model leaves out.
    """
    a, b = double_integrator(dt)
    V = n_cav + n_hdv
    A = np.kron(np.eye(V), a)
    B = np.zeros((2 * V, n_cav))
    for c in range(n_cav):
        B[2 * c : 2 * c + 2, c] = b[:, 0]
    k = hdv_gain * dt
    for h in range(n_cav, V):
        A[2 * h + 1, 2 * h + 1] = 1.0 - k
        for c in range(n_cav):
            A[2 * h + 1, 2 * c + 1] += k / n_cav
    return A, B


def path_geometry(lane_offset: float, n_vehicles: int):
    """Origins and unit directions of the crossing roads, one per vehicle.

    West->east, south->north, east->west, north->south; opposite directions
    run on lanes offset by lane_offset to either side of the centre line.
    """
    L = lane_offset
    origins = np.array([[0.0, -L], [L, 0.0], [0.0, L], [-L, 0.0]])[:n_vehicles]
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])[:n_vehicles]
    return origins, dirs


def pair_distances(X: np.ndarray, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Euclidean distance of every vehicle pair, pair axis last."""
    pos = origins + X[..., 0::2, None] * dirs
    V = origins.shape[0]
    cols = [
        np.sqrt(np.sum((pos[..., i, :] - pos[..., j, :]) ** 2, axis=-1))
        for i in range(V)
        for j in range(i + 1, V)
    ]
    return np.stack(cols, axis=-1)


class IntersectionCost:
    """Quadratic weights, speed tracking and the pairwise proximity penalty.

    Built from the scenario section of a config.  Stage cost:
    x'Qx + u'Ru + w sum_v ((v - v_des)^2 - v_des^2) + phi(x) - phi(0), with
    phi(x) = sum_{i<j} d_safe^2 / (d_ij^2 + softening).  The terminal cost
    keeps the quadratic and proximity terms but no speed tracking.
    """

    def __init__(self, scenario: dict):
        self.V = scenario["n_cav"] + scenario["n_hdv"]
        self.q = scenario["state_weight"]
        self.r = scenario["control_weight"]
        self.q_f = scenario["terminal_state_weight"]
        self.w = scenario["speed_weight"]
        self.v_des = np.asarray(scenario["desired_speeds"], dtype=float)
        self.d2 = scenario["safety_distance"] ** 2
        self.soft = scenario["softening"]
        self.origins, self.dirs = path_geometry(scenario["lane_offset"], self.V)
        self.phi0 = float(self.proximity(np.zeros(2 * self.V)))

    def proximity(self, X):
        d = pair_distances(np.asarray(X, dtype=float), self.origins, self.dirs)
        return np.sum(self.d2 / (d * d + self.soft), axis=-1)

    def stage(self, X, U):
        v = X[..., 1::2]
        track = self.w * np.sum((v - self.v_des) ** 2 - self.v_des**2, axis=-1)
        quad = self.q * np.sum(X * X, axis=-1) + self.r * np.sum(U * U, axis=-1)
        return quad + track + self.proximity(X) - self.phi0

    def terminal(self, X):
        return self.q_f * np.sum(X * X, axis=-1) + self.proximity(X) - self.phi0


def rbf_controls(X: np.ndarray, points: np.ndarray, coeffs: np.ndarray, length_scale: float):
    """Gaussian-kernel expansion sum_j exp(-|x - p_j|^2 / (2 l^2)) c_j, row by row."""
    diff = X[:, None, :] - points[None, :, :]
    K = np.exp(-np.sum(diff * diff, axis=-1) / (2.0 * length_scale**2))
    return K @ coeffs


def simulate_cost(A, B, stage, terminal, X0, controls, horizon: int) -> np.ndarray:
    """Per-row cost of running controls(t, X) for horizon steps from X0."""
    X = np.array(X0, dtype=float)
    total = np.zeros(X.shape[0])
    for t in range(horizon):
        U = controls(t, X)
        total += stage(X, U)
        X = X @ A.T + U @ B.T
    return total + terminal(X)


def riccati_value(A, B, Q, R, QF, horizon: int) -> np.ndarray:
    """P_0 of the finite-horizon LQR problem, by the Joseph-form backward step."""
    P = np.array(QF, dtype=float)
    for _ in range(horizon):
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        Acl = A - B @ K
        P = Q + K.T @ R @ K + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
    return P


def initial_state_rng(seed: int) -> np.random.Generator:
    """Generator of the initial-state draw: child 0 spawned from the run seed."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def intersection_states(seed: int, scenario: dict, N: int) -> np.ndarray:
    """N stacked states; per vehicle an arc in -offset +/- jitter and a speed in range."""
    rng = initial_state_rng(seed)
    X = np.empty((N, 2 * (scenario["n_cav"] + scenario["n_hdv"])))
    lo_v, hi_v = scenario["speed_range"]
    jit = scenario["position_jitter"]
    for i, off in enumerate(scenario["entry_offsets"]):
        X[:, 2 * i] = rng.uniform(-off - jit, -off + jit, size=N)
        X[:, 2 * i + 1] = rng.uniform(lo_v, hi_v, size=N)
    return X


def oracle_states(seed: int, oracle: dict, N: int) -> np.ndarray:
    """N stacked states with positions and speeds drawn from the oracle boxes."""
    rng = initial_state_rng(seed)
    V = oracle["n_vehicles"]
    X = np.empty((N, 2 * V))
    X[:, 0::2] = rng.uniform(*oracle["position_range"], size=(N, V))
    X[:, 1::2] = rng.uniform(*oracle["speed_range"], size=(N, V))
    return X
