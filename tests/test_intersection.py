import warnings

import numpy as np
import pytest

from kernelpi.costs import CollisionSpec, collision_penalty
from kernelpi.intersection import (
    NonConflictingPathsWarning,
    ScenarioConfig,
    build_intersection,
    min_pairwise_distance,
    pairwise_distances,
    positions_from_states,
    sample_initial_states,
)


def small_cfg(**kw):
    base = dict(
        n_cav=2,
        n_hdv=0,
        horizon=10,
        entry_offsets=(12.0, 14.0),
        desired_speeds=(10.0, 9.0),
        position_jitter=1.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_two_cav_build_dimensions():
    scenario, learner, plant, cost = build_intersection(small_cfg())
    assert scenario.n_vehicles == 2
    assert learner.n == 4 and learner.m == 2
    np.testing.assert_array_equal(learner.A, plant.A)
    assert cost.Q.shape == (4, 4) and cost.R.shape == (2, 2)


def test_mixed_traffic_build_dimensions():
    scenario, learner, plant, cost = build_intersection(
        small_cfg(n_hdv=1, entry_offsets=(12.0, 14.0, 16.0), desired_speeds=(10.0, 9.0, 10.0))
    )
    assert scenario.n_vehicles == 3
    assert learner.m == 2 and plant.m == 2
    assert plant.n == 6
    # hidden reaction couples the third vehicle's speed to the CAV speeds
    v3 = 5
    assert plant.A[v3, 1] != 0.0 and plant.A[v3, 3] != 0.0
    assert learner.A[v3, 1] == 0.0 and learner.A[v3, 3] == 0.0
    # the CAVs come first; the HDV has no input column
    np.testing.assert_array_equal(plant.B[4:], 0.0)


def test_single_vehicle_has_no_pairs():
    scenario, learner, plant, cost = build_intersection(
        small_cfg(n_cav=1, entry_offsets=(12.0,), desired_speeds=(10.0,))
    )
    assert min_pairwise_distance(np.zeros((3, 2)), scenario) == np.inf
    x = np.array([-12.0, 10.0])
    # no pair terms: the stage penalty reduces to the speed-tracking part
    psi_val = cost.psi(x)
    assert np.isfinite(psi_val)


def test_penalty_vanishes_at_zero_state():
    for cfg in (small_cfg(), small_cfg(n_hdv=1, entry_offsets=(12.0, 13.0, 14.0), desired_speeds=None)):
        _, _, _, cost = build_intersection(cfg)
        assert abs(float(cost.psi(np.zeros(cost.n)))) < 1e-12
        assert abs(float(cost.psi_F(np.zeros(cost.n)))) < 1e-12


def test_build_rejects_start_inside_region():
    with pytest.raises(ValueError):
        build_intersection(small_cfg(entry_offsets=(5.0, 14.0)))


def test_non_conflicting_geometry_warns():
    # lanes offset wider than the conflict region: crossings fall outside it
    with pytest.warns(NonConflictingPathsWarning):
        build_intersection(small_cfg(intersection_length=1.0, lane_offset=1.75))


def test_sampling_point_mass_box():
    scenario, *_ = build_intersection(small_cfg(position_jitter=0.0, speed_range=(10.0, 10.0)))
    # degenerate boxes collapse to a single state
    x = sample_initial_states(scenario, np.random.default_rng(0), 3)
    np.testing.assert_allclose(x, np.tile([-12.0, 10.0, -14.0, 10.0], (3, 1)))


def test_sampling_is_deterministic_under_seed():
    scenario, *_ = build_intersection(small_cfg())
    a = sample_initial_states(scenario, np.random.default_rng(42), 8)
    b = sample_initial_states(scenario, np.random.default_rng(42), 8)
    np.testing.assert_array_equal(a, b)


def test_samples_start_upstream_of_region():
    scenario, *_ = build_intersection(small_cfg())
    x = sample_initial_states(scenario, np.random.default_rng(1), 200)
    half = 0.5 * scenario.intersection_length
    assert (x[:, 0::2] < -half).all()


def test_pairwise_distance_geometry():
    scenario, *_ = build_intersection(small_cfg(lane_offset=0.0))
    # both vehicles exactly at the crossing point
    x = np.array([0.0, 10.0, 0.0, 9.0])
    assert min_pairwise_distance(x, scenario) == pytest.approx(0.0, abs=1e-12)
    # one at the crossing, the other 3 m upstream on the orthogonal path
    x = np.array([0.0, 10.0, -3.0, 9.0])
    assert min_pairwise_distance(x, scenario) == pytest.approx(3.0)
    # 3-4-5 right triangle
    x = np.array([-3.0, 10.0, -4.0, 9.0])
    assert min_pairwise_distance(x, scenario) == pytest.approx(5.0)


def test_pairwise_distances_symmetry_and_shape():
    scenario, *_ = build_intersection(
        small_cfg(n_hdv=1, entry_offsets=(12.0, 13.0, 14.0), desired_speeds=None)
    )
    rng = np.random.default_rng(5)
    traj = rng.normal(size=(7, 6)) * 5.0
    pairs, d = pairwise_distances(traj, scenario)
    assert pairs == [(0, 1), (0, 2), (1, 2)]
    assert d.shape == (7, 3)
    pos = positions_from_states(traj, scenario)
    for p, (i, j) in enumerate(pairs):
        np.testing.assert_allclose(d[:, p], np.linalg.norm(pos[:, i] - pos[:, j], axis=-1))


def test_positions_lie_on_declared_paths():
    scenario, *_ = build_intersection(small_cfg())
    rng = np.random.default_rng(6)
    states = rng.normal(size=(20, 4)) * 10.0
    pos = positions_from_states(states, scenario)
    np.testing.assert_allclose(np.linalg.norm(scenario.dirs, axis=1), 1.0)
    for i, (origin, direction) in enumerate(zip(scenario.origins, scenario.dirs)):
        rel = pos[:, i, :] - origin
        perp = rel - np.outer(rel @ direction, direction)
        assert np.abs(perp).max() < 1e-12
        np.testing.assert_allclose(rel @ direction, states[:, 2 * i], rtol=1e-12)


def test_conflict_pairs_for_default_geometry():
    scenario, *_ = build_intersection(
        small_cfg(n_hdv=1, entry_offsets=(12.0, 13.0, 14.0), desired_speeds=None)
    )
    pairs = scenario.conflict_pairs()
    # crossing movements conflict; the two opposite straight movements do not
    assert (0, 1) in pairs and (1, 2) in pairs and (0, 2) not in pairs


@pytest.mark.parametrize("V", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(), (7,), (5, 3)])
def test_penalties_match_collision_penalty_plus_tracking(V, shape):
    # the fused penalties against the unfused definition: planar positions,
    # pairwise proximity cost and the speed-tracking sum, both shifted to
    # vanish at the zero state
    speeds = (11.0, 8.0, 10.0, 9.5)[:V]
    cfg = small_cfg(
        n_cav=min(V, 2),
        n_hdv=max(V - 2, 0),
        entry_offsets=(12.0, 14.0, 13.0, 15.0)[:V],
        desired_speeds=speeds,
        speed_weight=0.7,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConflictingPathsWarning)
        scenario, _, _, cost = build_intersection(cfg)
    rng = np.random.default_rng(V)
    x = np.empty(shape + (2 * V,))
    x[..., 0::2] = rng.uniform(-15.0, 15.0, size=shape + (V,))
    x[..., 1::2] = rng.uniform(6.0, 13.0, size=shape + (V,))

    spec = CollisionSpec(safety_distance=cfg.safety_distance, softening=cfg.softening)

    def proximity(states):
        return collision_penalty(positions_from_states(states, scenario), spec)

    phi0 = proximity(np.zeros(2 * V))
    vdes = np.asarray(speeds)
    tracking = cfg.speed_weight * np.sum((x[..., 1::2] - vdes) ** 2 - vdes**2, axis=-1)
    psi, psi_F = cost.psi(x), cost.psi_F(x)
    assert np.shape(psi) == shape and np.shape(psi_F) == shape
    np.testing.assert_allclose(psi, proximity(x) - phi0 + tracking, rtol=1e-12)
    np.testing.assert_allclose(psi_F, proximity(x) - phi0, rtol=1e-12)
