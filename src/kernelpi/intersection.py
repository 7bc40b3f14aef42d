"""Signal-free intersection scenarios: geometry, sampling, and safety metrics.

Vehicles follow fixed straight paths through a square conflict region.  Each
vehicle's dynamic state is its signed arc-length coordinate along the path
(zero at the point closest to the intersection center, negative upstream)
plus its speed, so the stacked team state is (arc_1, speed_1, ..., arc_V,
speed_V).  Planar positions are reconstructed from the paths for distance
and collision computations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .costs import CostSpec, StateCost
from .dynamics import LinearSystem, assemble_team_system, discretize_double_integrator

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "NonConflictingPathsWarning",
    "build_intersection",
    "sample_initial_states",
    "positions_from_states",
    "pairwise_distances",
    "min_pairwise_distance",
]


# One road per vehicle; see _road_paths.
_ROADS = 4


class NonConflictingPathsWarning(UserWarning):
    """No pair of vehicle paths crosses inside the conflict region."""


@dataclass
class Scenario:
    """Intersection instance: the vehicles' straight paths, conflict geometry, sampling boxes.

    Vehicle i drives along origins[i] + arc * dirs[i], with dirs[i] a unit
    vector; the CAVs come first, then the HDVs.  Vehicle i's initial arc is
    drawn from -entry_offsets[i] +- position_jitter and its speed from
    speed_range.
    """

    origins: np.ndarray  # (V, 2)
    dirs: np.ndarray  # (V, 2)
    entry_offsets: np.ndarray  # (V,)
    position_jitter: float
    speed_range: Tuple[float, float]
    intersection_length: float
    safety_distance: float
    softening: float
    dt: float

    @property
    def n_vehicles(self) -> int:
        return self.origins.shape[0]

    def conflict_pairs(self) -> list:
        """Vehicle pairs whose paths cross inside the conflict region."""
        half = 0.5 * self.intersection_length
        pairs = []
        for i in range(self.n_vehicles):
            for j in range(i + 1, self.n_vehicles):
                p = _line_intersection(self.origins[i], self.dirs[i], self.origins[j], self.dirs[j])
                if p is not None and np.all(np.abs(p) <= half + 1e-9):
                    pairs.append((i, j))
        return pairs


def _line_intersection(o_a, d_a, o_b, d_b) -> Optional[np.ndarray]:
    """Crossing point of the lines o_a + s d_a and o_b + r d_b; None when parallel."""
    cross = d_a[0] * d_b[1] - d_a[1] * d_b[0]
    if abs(cross) < 1e-12:
        return None
    rhs = o_b - o_a
    s = (rhs[0] * d_b[1] - rhs[1] * d_b[0]) / cross
    return o_a + s * d_a


@dataclass
class ScenarioConfig:
    """Construction parameters for an intersection scenario.

    Entry offsets, desired speeds, sampling boxes, and cost weights are
    configuration values; only the intersection length and the time step are
    pinned by the reference setup (10 m, 0.1 s).  Unset entry offsets are
    20 m and unset desired speeds 10 m/s for every vehicle.
    """

    n_cav: int = 2
    n_hdv: int = 0
    horizon: int = 50
    dt: float = 0.1
    intersection_length: float = 10.0
    lane_offset: float = 1.75
    entry_offsets: Optional[Tuple[float, ...]] = None
    desired_speeds: Optional[Tuple[float, ...]] = None
    position_jitter: float = 2.0
    speed_range: Tuple[float, float] = (8.0, 12.0)
    safety_distance: float = 2.0
    softening: float = 0.1
    state_weight: float = 1.0e-4
    speed_weight: float = 1.0
    control_weight: float = 0.1
    terminal_state_weight: float = 1.0e-4
    hdv_gain: float = 0.6

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("dt", "intersection_length", "safety_distance", "softening", "control_weight"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("position_jitter", "state_weight", "speed_weight", "terminal_state_weight"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_cav < 1:
            raise ValueError("n_cav must be >= 1")
        if self.n_hdv < 0:
            raise ValueError("n_hdv must be >= 0")
        if self.n_vehicles > _ROADS:
            raise ValueError(f"at most {_ROADS} vehicles supported")
        if len(self.offsets()) != self.n_vehicles or len(self.speeds()) != self.n_vehicles:
            raise ValueError("entry_offsets and desired_speeds must have one entry per vehicle")
        if not self.speed_range[0] <= self.speed_range[1]:
            raise ValueError("speed_range must satisfy low <= high")
        half = 0.5 * self.intersection_length
        for i, offset in enumerate(self.offsets()):
            if not offset - self.position_jitter > half:
                raise ValueError(
                    f"vehicle {i} can start inside the conflict region: "
                    f"entry offset {offset} minus jitter {self.position_jitter} "
                    f"does not clear half-length {half}"
                )

    @property
    def n_vehicles(self) -> int:
        return self.n_cav + self.n_hdv

    def offsets(self) -> Tuple[float, ...]:
        return self.entry_offsets if self.entry_offsets is not None else (20.0,) * self.n_vehicles

    def speeds(self) -> Tuple[float, ...]:
        return self.desired_speeds if self.desired_speeds is not None else (10.0,) * self.n_vehicles


def _road_paths(lane_offset: float, n_vehicles: int):
    """Origins and unit directions, (V, 2) each, of the first n_vehicles roads.

    West->east, south->north, east->west, north->south; opposite directions
    run on laterally offset lanes so only crossing movements conflict.
    """
    L = lane_offset
    origins = np.array([[0.0, -L], [L, 0.0], [0.0, L], [-L, 0.0]])
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return origins[:n_vehicles], dirs[:n_vehicles]


def _scenario_penalty(scenario: Scenario, speed_weight: float, desired_speeds) -> StateCost:
    """Pairwise proximity cost plus speed tracking, shifted so psi(0) = 0.

    The proximity cost is sum over pairs of d_safe^2 / (distance^2 + softening),
    as in costs.collision_penalty; the tracking term is
    sum_v w * ((v - v_des)^2 - v_des^2).  Paths are straight, so one affine
    map z = x L + o of the stacked state gives every pair's planar
    displacement (o_i - o_j) + arc_i d_i - arc_j d_j and every vehicle's
    v - v_des.  A second fixed matrix sums the squares of z into each pair's
    squared distance and the weighted tracking sum.  The value at the zero
    state is subtracted, which keeps the cost contract intact without
    affecting minimizers.  Inputs are batched (..., n).
    """
    origins, dirs = scenario.origins, scenario.dirs
    V = scenario.n_vehicles
    iu, ju = np.triu_indices(V, k=1)
    P = iu.size
    lin = np.zeros((2 * V, 2 * P + V))
    offset = np.zeros(2 * P + V)
    squares_to_sums = np.zeros((2 * P + V, P + 1))
    for p, (i, j) in enumerate(zip(iu, ju)):
        lin[2 * i, 2 * p : 2 * p + 2] = dirs[i]
        lin[2 * j, 2 * p : 2 * p + 2] = -dirs[j]
        offset[2 * p : 2 * p + 2] = origins[i] - origins[j]
        squares_to_sums[2 * p : 2 * p + 2, p] = 1.0
    lin[1::2, 2 * P :] = np.eye(V)
    offset[2 * P :] = -np.asarray(desired_speeds, dtype=float)
    squares_to_sums[2 * P :, P] = speed_weight
    used = squares_to_sums.any(axis=1)  # without tracking, the speed columns weigh nothing
    return StateCost(
        lin[:, used],
        offset[used],
        squares_to_sums[used],
        scenario.safety_distance**2,
        scenario.softening,
    )


def build_intersection(cfg: ScenarioConfig):
    """Assemble an intersection scenario with its dynamics and cost.

    Returns (scenario, learner_system, plant_system, cost_spec).  The learner
    system is the naive block-diagonal model whose inputs are the CAV
    accelerations; the plant additionally contains each HDV's hidden speed
    reaction to the surrounding CAV traffic, so the plant stays exactly
    linear while the coupling is unknown to the learner.
    """
    origins, dirs = _road_paths(cfg.lane_offset, cfg.n_vehicles)
    scenario = Scenario(
        origins=origins,
        dirs=dirs,
        entry_offsets=np.asarray(cfg.offsets(), dtype=float),
        position_jitter=cfg.position_jitter,
        speed_range=tuple(cfg.speed_range),
        intersection_length=cfg.intersection_length,
        safety_distance=cfg.safety_distance,
        softening=cfg.softening,
        dt=cfg.dt,
    )
    if scenario.n_vehicles >= 2 and not scenario.conflict_pairs():
        warnings.warn(
            "no pair of vehicle paths crosses inside the conflict region",
            NonConflictingPathsWarning,
            stacklevel=2,
        )

    base = discretize_double_integrator(cfg.dt)
    learner = _assemble_with_inputs(base, cfg.n_cav, cfg.n_hdv)
    plant = _assemble_with_inputs(base, cfg.n_cav, cfg.n_hdv)
    k = cfg.hdv_gain * cfg.dt
    for h in range(cfg.n_cav, cfg.n_vehicles):
        vh = 2 * h + 1
        plant.A[vh, vh] = 1.0 - k
        for c in range(cfg.n_cav):
            plant.A[vh, 2 * c + 1] += k / cfg.n_cav

    n = 2 * cfg.n_vehicles
    Q = cfg.state_weight * np.eye(n)
    Q_F = cfg.terminal_state_weight * np.eye(n)
    R = cfg.control_weight * np.eye(learner.m)
    psi = _scenario_penalty(scenario, cfg.speed_weight, cfg.speeds())
    psi_F = _scenario_penalty(scenario, 0.0, cfg.speeds())
    cost = CostSpec(Q=Q, R=R, Q_F=Q_F, psi=psi, psi_F=psi_F)
    return scenario, learner, plant, cost


def _assemble_with_inputs(base: LinearSystem, n_cav: int, n_hdv: int) -> LinearSystem:
    """Stack per-vehicle kinematics, CAVs first; only CAVs contribute input columns."""
    hdv = LinearSystem(base.A, np.zeros((2, 0)))
    return assemble_team_system([base] * n_cav + [hdv] * n_hdv)


def sample_initial_states(scenario: Scenario, rng: np.random.Generator, N: int) -> np.ndarray:
    """Draw N stacked initial states from the per-vehicle uniform boxes."""
    if N < 1:
        raise ValueError("need N >= 1")
    X = np.empty((N, 2 * scenario.n_vehicles))
    jitter = scenario.position_jitter
    low, high = scenario.speed_range
    for i, offset in enumerate(scenario.entry_offsets):
        X[:, 2 * i] = rng.uniform(-offset - jitter, -offset + jitter, size=N)
        X[:, 2 * i + 1] = rng.uniform(low, high, size=N)
    return X


def positions_from_states(states, scenario: Scenario) -> np.ndarray:
    """Reconstruct planar vehicle positions, shape (..., V, 2), from stacked states."""
    x = np.asarray(states, dtype=float)
    arcs = x[..., 0::2]
    return scenario.origins + arcs[..., None] * scenario.dirs


def pairwise_distances(trajectory, scenario: Scenario):
    """Euclidean distances of reconstructed positions for all vehicle pairs.

    trajectory is any array of stacked states with the state on the last axis
    (a single state, a (T, n) trajectory, or a (N, T, n) batch).  Returns
    (pairs, values) where values has the pair axis last.
    """
    pos = positions_from_states(trajectory, scenario)
    V = scenario.n_vehicles
    iu, ju = np.triu_indices(V, k=1)
    pairs = list(zip(iu.tolist(), ju.tolist()))
    diff = pos[..., iu, :] - pos[..., ju, :]
    values = np.sqrt(np.sum(diff * diff, axis=-1))
    return pairs, values


def min_pairwise_distance(trajectory, scenario: Scenario) -> float:
    """Minimum pairwise distance over all times and pairs; inf for one vehicle."""
    _, values = pairwise_distances(trajectory, scenario)
    return float(values.min()) if values.size else float("inf")
