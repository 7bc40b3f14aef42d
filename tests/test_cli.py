import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import kernelpi.cli
from kernelpi.cli import main, oracle_compare
from kernelpi.config import (
    MODES,
    ConfigError,
    RunConfig,
    config_from_mapping,
    dump_config,
    load_config,
    online_config,
)
from kernelpi.intersection import (
    NonConflictingPathsWarning,
    build_intersection,
    sample_initial_states,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def test_shipped_offline_config_values():
    cfg = load_config(CONFIGS / "offline_intersection.yaml")
    assert cfg.mode == "offline"
    assert cfg.scenario.horizon == 50
    assert cfg.scenario.dt == 0.1
    assert cfg.scenario.n_cav == 2 and cfg.scenario.n_hdv == 0
    assert cfg.scenario.intersection_length == 10.0


def test_shipped_online_config_values():
    cfg = load_config(CONFIGS / "online_intersection.yaml")
    assert cfg.mode == "online"
    assert cfg.online.ident_steps == 40
    assert cfg.online.window == 4
    assert cfg.online.sigma_excitation == 1.5
    assert cfg.scenario.dt == 0.1


def test_shipped_oracle_and_probe_configs_load():
    assert load_config(CONFIGS / "oracle_lqr.yaml").mode == "oracle-compare"
    assert load_config(CONFIGS / "complexity_probe.yaml").mode == "complexity-probe"


def test_invalid_learning_rate_rejected(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("mode: offline\nsolver:\n  delta_lr: -1.0\n")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert "solver" in str(exc.value)


def test_unknown_key_rejected_with_path(tmp_path):
    p = tmp_path / "typo.yaml"
    p.write_text("mode: offline\nscenario:\n  horizonn: 50\n")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert "scenario" in str(exc.value) and "horizonn" in str(exc.value)


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"mode": "turbo"})


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_online_invariants_checked():
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(
            {"mode": "online", "scenario": {"horizon": 10}, "online": {"ident_steps": 10}}
        )
    assert "ident_steps" in str(exc.value)


def test_an_online_config_that_identifies_nothing_is_refused(tmp_path, capsys):
    # a config file cannot give the loop a prior model, so with no
    # identification step it would plan on A = 0 and B = 0
    data = yaml.safe_load((CONFIGS / "online_intersection.yaml").read_text())
    data["online"]["ident_steps"] = 0
    data["output_dir"] = str(tmp_path / "run")
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["online", str(p)]) == 2
    assert "online.ident_steps" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_an_online_config_that_excites_nothing_is_refused(tmp_path, capsys):
    # with no excitation every regressor's input part is 0, so the estimate
    # of B stays at its prior, 0, and a config file cannot give another
    data = yaml.safe_load((CONFIGS / "online_intersection.yaml").read_text())
    data["online"]["sigma_excitation"] = 0.0
    data["output_dir"] = str(tmp_path / "run")
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["online", str(p)]) == 2
    assert "online.sigma_excitation" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_SMALL_RUNS = {
    "offline": {
        "scenario": {"horizon": 4},
        "solver": {"max_outer_iters": 1, "mc_samples": 4, "dict_size": 2, "convergence_tol": 0.0},
    },
    "oracle-compare": {
        "oracle": {"horizon": 2, "n_vehicles": 1, "scalar_check": False},
        "solver": {
            "max_outer_iters": 1, "mc_samples": 4, "dict_size": 2, "kernel_family": "linear",
            "convergence_tol": 0.0,
        },
    },
}


@pytest.mark.parametrize(
    "mode, section, overrides",
    [
        ("offline", "scenario", {"n_cav": 3, "n_hdv": 2}),
        ("offline", "scenario", {"entry_offsets": [20.0]}),
        ("offline", "scenario", {"entry_offsets": [6.0, 6.0]}),
        ("offline", "scenario", {"speed_range": [12.0, 8.0]}),
        ("offline", "scenario", {"position_jitter": -1.0}),
        ("offline", "scenario", {"entry_offsets": 20.0}),
        ("offline", "scenario", {"entry_offsets": ["x", 24.0]}),
        ("offline", "scenario", {"control_weight": -1.0}),
        ("offline", "scenario", {"n_cav": 2, "n_hdv": -1}),
        ("offline", "scenario", {"desired_speeds": [True, 9.0]}),
        ("offline", "scenario", {"dt": math.inf}),
        ("offline", "scenario", {"dt": 10**400}),
        ("offline", "solver", {"kernel_family": "rbf"}),
        ("offline", "solver", {"length_scale": -1.0}),
        ("offline", "solver", {"kernel_family": "polynomial", "poly_degree": 0}),
        ("offline", "solver", {"seed": 3}),
        ("oracle-compare", "oracle", {"position_range": [2.0, -2.0]}),
        ("oracle-compare", "oracle", {"include_collision_penalty": False}),
        ("oracle-compare", "oracle", {"samples": 100}),
    ],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items())[:40] if isinstance(v, dict) else None,
)
def test_invalid_config_rejected_at_load(tmp_path, mode, section, overrides):
    data = {"mode": mode, "output_dir": str(tmp_path / "run")}
    data.update({k: dict(v) for k, v in _SMALL_RUNS[mode].items()})
    data.setdefault(section, {}).update(overrides)
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(data)
    assert str(exc.value).startswith(section)
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main([mode, str(p)]) == 2


_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.lists(st.integers(), max_size=2))
_reals = st.one_of(
    st.floats(-100.0, 100.0), st.integers(-5, 100), st.sampled_from([math.nan, math.inf, -math.inf])
)
_number = st.one_of(_reals, _junk)
_count = st.one_of(st.integers(-3, 8), st.floats(-1.0, 5.0), _junk)
_vector = st.one_of(st.lists(_reals, max_size=5), st.lists(_number, max_size=3), _number)


def _mostly(valid, invalid):
    """A valid value nine times in ten; otherwise one out of range, of the wrong type or length."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else invalid)


def _float_in(lo, hi):
    return _mostly(st.floats(lo, hi), _number)


def _section(required, optional):
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def _scenario(draw):
    n_cav = draw(st.integers(1, 4))
    n_hdv = draw(st.integers(0, 4 - n_cav))
    per_vehicle = st.lists(st.floats(10.0, 60.0), min_size=n_cav + n_hdv, max_size=n_cav + n_hdv)
    return draw(
        _section(
            dict(n_cav=_mostly(st.just(n_cav), _count), n_hdv=_mostly(st.just(n_hdv), _count)),
            dict(
                horizon=_mostly(st.integers(1, 60), _count),
                dt=_float_in(1e-3, 1.0),
                intersection_length=_float_in(1.0, 10.0),
                lane_offset=_float_in(-5.0, 5.0),
                entry_offsets=_mostly(st.one_of(st.none(), per_vehicle), _vector),
                desired_speeds=_mostly(st.one_of(st.none(), per_vehicle), _vector),
                position_jitter=_float_in(0.0, 3.0),
                speed_range=_mostly(
                    st.lists(st.floats(0.0, 15.0), min_size=2, max_size=2).map(sorted), _vector
                ),
                safety_distance=_float_in(0.1, 5.0),
                softening=_float_in(1e-3, 1.0),
                state_weight=_float_in(0.0, 10.0),
                speed_weight=_float_in(0.0, 10.0),
                control_weight=_float_in(1e-3, 10.0),
                terminal_state_weight=_float_in(0.0, 10.0),
                hdv_gain=_float_in(-2.0, 2.0),
            ),
        )
    )


_KERNEL_KEYS = dict(
    kernel_family=_mostly(
        st.sampled_from(["gaussian-rbf", "linear", "polynomial"]), st.one_of(st.just("rbf"), _junk)
    ),
    length_scale=_mostly(st.one_of(st.none(), st.floats(1e-2, 10.0)), _number),
    poly_degree=_mostly(st.integers(1, 4), _count),
    poly_offset=_float_in(-2.0, 2.0),
)
_ONLINE_KEYS = dict(
    window=_mostly(st.integers(1, 10), _count),
    ident_steps=_mostly(st.integers(0, 40), _count),
    sigma_excitation=_float_in(0.0, 3.0),
    m0_scale=_float_in(1.0, 1e6),
    forgetting=_float_in(0.5, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(["offline", "online"]),
    scenario=_scenario(),
    solver=_section({}, _KERNEL_KEYS),
    online=_section({}, _ONLINE_KEYS),
)
def test_every_accepted_config_builds(mode, scenario, solver, online):
    # the load boundary's guarantee: a config is either refused with a
    # ConfigError or everything a run builds from it can be built
    try:
        cfg = config_from_mapping(
            {"mode": mode, "scenario": scenario, "solver": solver, "online": online}
        )
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConflictingPathsWarning)
        built, *_ = build_intersection(cfg.scenario)
    X = sample_initial_states(built, np.random.default_rng(0), 3)
    assert np.isfinite(X).all()
    cfg.solver.kernel_spec(reference_points=X)
    if mode == "online":
        online_config(cfg)


def _tiny_offline_config(tmp_path, seed=5):
    return config_from_mapping(
        {
            "mode": "offline",
            "seed": seed,
            "output_dir": str(tmp_path),
            "scenario": {
                "n_cav": 2,
                "horizon": 6,
                "entry_offsets": [12.0, 14.0],
                "position_jitter": 1.0,
                "speed_range": [4.0, 6.0],
            },
            "solver": {
                "delta_lr": 8.0,
                "max_outer_iters": 3,
                "mc_samples": 8,
                "dict_size": 5,
                "convergence_tol": 0.0,
            },
        }
    )


def _write_cfg(cfg: RunConfig, path: Path):
    path.write_text(yaml.safe_dump(dump_config(cfg)))
    return path


def test_offline_command_exports_aligned_tables(tmp_path):
    cfg = _tiny_offline_config(tmp_path / "run")
    cfg_path = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["offline", str(cfg_path)]) == 0
    out = Path(cfg.output_dir)
    lines = (out / "cost_history.csv").read_text().strip().splitlines()
    assert lines[0] == "index,cost,delta_pi_sq"
    assert len(lines) == 1 + 3
    assert [int(l.split(",")[0]) for l in lines[1:]] == [0, 1, 2]
    costs = [float(l.split(",")[1]) for l in lines[1:]]
    assert costs == sorted(costs, reverse=True)
    traj = (out / "trajectories.csv").read_text().strip().splitlines()
    assert traj[0].startswith("sample,time,veh1_arc")
    assert len(traj) == 1 + 8 * 7  # 8 samples, horizon 6 plus terminal row
    dist = (out / "distances.csv").read_text().strip().splitlines()
    assert dist[0] == "time,pair,distance"
    assert len(dist) == 1 + 7
    assert (out / "metadata.yaml").exists() and (out / "runtime.yaml").exists()
    trace = (out / "stage_trace.csv").read_text().strip().splitlines()
    assert trace[0] == (
        "iteration,stage,accepted,reason,first_trial,tail_calls,value_step_sq,secant_gap"
    )
    assert len(trace) == 1 + 3 * 6  # one row per stage update
    assert [tuple(map(int, l.split(",")[:2])) for l in trace[1:7]] == [(0, t) for t in range(6)]


def test_identical_config_and_seed_reproduce_tables_byte_for_byte(tmp_path):
    cfg_a = _tiny_offline_config(tmp_path / "a")
    cfg_b = _tiny_offline_config(tmp_path / "b")
    pa = _write_cfg(cfg_a, tmp_path / "a.yaml")
    pb = _write_cfg(cfg_b, tmp_path / "b.yaml")
    assert main(["offline", str(pa)]) == 0
    assert main(["offline", str(pb)]) == 0
    for name in ("cost_history.csv", "stage_trace.csv", "trajectories.csv", "distances.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # metadata differs only in the configured output directory
    ma = yaml.safe_load((tmp_path / "a" / "metadata.yaml").read_text())
    mb = yaml.safe_load((tmp_path / "b" / "metadata.yaml").read_text())
    ma.pop("output_dir"), mb.pop("output_dir")
    assert ma == mb


def test_offline_run_diverging_in_the_zero_control_draw_writes_header_only_run_tables(
    tmp_path, capsys
):
    # initial speeds of a few million m/s cross the state guard in the
    # zero-control draw, before any iteration: the run tables are header-only
    cfg = _tiny_offline_config(tmp_path / "run")
    cfg.scenario.speed_range = (2.0e6, 3.0e6)
    p = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["offline", str(p)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("divergence: ")
    assert "sample 0" in err[0] and "stage 0" in err[0]
    out = Path(cfg.output_dir)
    assert (out / "cost_history.csv").read_text() == "index,cost,delta_pi_sq\n"
    assert (out / "stage_trace.csv").read_text().count("\n") == 1
    assert dump_config(load_config(out / "metadata.yaml")) == dump_config(cfg)


def test_seed_override_changes_outputs(tmp_path):
    cfg = _tiny_offline_config(tmp_path / "x")
    p = _write_cfg(cfg, tmp_path / "x.yaml")
    assert main(["offline", str(p)]) == 0
    first = (tmp_path / "x" / "cost_history.csv").read_bytes()
    assert main(["offline", str(p), "--seed", "99", "--out", str(tmp_path / "y")]) == 0
    second = (tmp_path / "y" / "cost_history.csv").read_bytes()
    assert first != second


def test_metadata_round_trips_to_equivalent_config(tmp_path):
    cfg = _tiny_offline_config(tmp_path / "run")
    p = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["offline", str(p)]) == 0
    reloaded = load_config(Path(cfg.output_dir) / "metadata.yaml")
    assert dump_config(reloaded) == dump_config(cfg)


def test_mode_mismatch_is_a_config_error(tmp_path):
    cfg = _tiny_offline_config(tmp_path / "run")
    p = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["online", str(p)]) == 2


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("mode: offline\nsolver:\n  delta_lr: 0\n")
    assert main(["offline", str(p)]) == 2


def test_negative_seed_rejected_at_load_and_on_the_command_line(tmp_path, capsys):
    data = {"mode": "oracle-compare", "seed": -1, "output_dir": str(tmp_path / "run")}
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(data)
    assert "seed" in str(exc.value)
    p = tmp_path / "neg.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["oracle-compare", str(p)]) == 2
    capsys.readouterr()
    assert main(["oracle-compare", str(CONFIGS / "oracle_lqr.yaml"), "--seed", "-2"]) == 2
    assert "seed" in capsys.readouterr().err


def test_zero_ridge_on_a_rank_deficient_gram_is_a_config_error(tmp_path, capsys):
    # linear kernel, n = 4 and dict_size 12: every stage Gram has rank <= 4,
    # so ridge 0 (which the validator accepts) leaves it singular
    data = yaml.safe_load((CONFIGS / "oracle_lqr.yaml").read_text())
    data["solver"]["ridge"] = 0.0
    data["output_dir"] = str(tmp_path / "run")
    p = tmp_path / "zero_ridge.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["oracle-compare", str(p)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: solver.ridge: ")
    assert "stage" in err[0]


def test_a_negative_polynomial_offset_is_refused_before_any_output(tmp_path, capsys):
    # (x . y + c)^d with c < 0 is an indefinite kernel, whose Gram matrices
    # no small ridge shift makes positive definite: it is refused at load,
    # before main makes the output directory
    cfg = _tiny_offline_config(tmp_path / "run")
    data = dump_config(cfg)
    data["solver"].update(kernel_family="polynomial", poly_degree=2, poly_offset=-1.0)
    p = tmp_path / "neg_offset.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["offline", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver") and "poly_offset" in err
    assert not (tmp_path / "run").exists()


def test_importing_the_cli_loads_no_scipy():
    # numpy and pyyaml are the only runtime dependencies; importing
    # scipy.linalg alone more than doubled the CLI's start-up time
    code = (
        "import sys; sys.path.insert(0, {src!r}); import kernelpi.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    ).format(src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _oracle_cfg(**kw):
    oracle = {
        "horizon": 4,
        "n_vehicles": 1,
        "scalar_check": False,
    }
    oracle.update(kw.pop("oracle", {}))
    data = {
        "mode": "oracle-compare",
        "seed": 2,
        "oracle": oracle,
        "solver": {
            "delta_lr": 30.0,
            "max_outer_iters": 80,
            "mc_samples": 30,
            "dict_size": 4,
            "kernel_family": "linear",
            "convergence_tol": 1e-12,
        },
    }
    data.update(kw)
    return config_from_mapping(data)


def test_oracle_compare_command_exports_its_run_tables(tmp_path):
    cfg = _oracle_cfg(output_dir=str(tmp_path / "run"))
    cfg.solver.max_outer_iters = 5
    cfg.solver.convergence_tol = 0.0
    p = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["oracle-compare", str(p)]) == 0
    out = Path(cfg.output_dir)
    rows = (out / "cost_history.csv").read_text().strip().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(5))
    costs = [float(row.split(",")[1]) for row in rows]
    tol = cfg.solver.inner_tol
    for before, after in zip(costs, costs[1:]):
        assert after <= before + tol * (1.0 + abs(before))
    trace = (out / "stage_trace.csv").read_text().strip().splitlines()[1:]
    horizon = cfg.oracle.horizon
    assert [tuple(map(int, row.split(",")[:2])) for row in trace] == [
        (k, t) for k in range(5) for t in range(horizon)
    ]


@pytest.mark.parametrize("scalar_check", [False, True])
def test_oracle_compare_exports_the_scalar_solves_run_tables_with_scalar_check(tmp_path, scalar_check):
    cfg = _oracle_cfg(output_dir=str(tmp_path / "run"), oracle={"scalar_check": scalar_check})
    cfg.solver.max_outer_iters = 2
    p = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["oracle-compare", str(p)]) == 0
    out = Path(cfg.output_dir)
    names = ["scalar_cost_history.csv", "scalar_stage_trace.csv"]
    assert [(out / name).exists() for name in names] == [scalar_check] * 2
    if scalar_check:
        costs = (out / names[0]).read_text().strip().splitlines()
        trace = (out / names[1]).read_text().strip().splitlines()
        assert costs[0] == (out / "cost_history.csv").read_text().splitlines()[0]
        assert trace[0] == (out / "stage_trace.csv").read_text().splitlines()[0]
        # the scalar instance has one stage: one update per iteration
        assert len(costs) == len(trace) > 2
        assert [tuple(map(int, row.split(",")[:2])) for row in trace[1:]] == [
            (k, 0) for k in range(len(trace) - 1)
        ]


def test_complexity_probe_command_writes_only_its_probe_table(tmp_path):
    out = tmp_path / "run"
    data = {
        "mode": "complexity-probe",
        "output_dir": str(out),
        "probe": {"samples": 2, "dict_size": 1, "horizon": 2, "iterations": 1},
    }
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(data))
    assert main(["complexity-probe", str(p)]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["metadata.yaml", "probe.csv"]
    assert len((out / "probe.csv").read_text().strip().splitlines()) == 1 + 4


@pytest.mark.parametrize(
    "config",
    ["offline_intersection", "online_intersection", "oracle_lqr", "complexity_probe"],
)
def test_out_naming_a_file_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch, config):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the output directory was checked")

    for name in ("policy_iteration", "run_online", "complexity_probe"):
        monkeypatch.setattr(kernelpi.cli, name, no_solve)
    target = tmp_path / "results"
    target.write_text("not a directory\n")
    cfg_path = CONFIGS / f"{config}.yaml"
    code = main([load_config(cfg_path).mode, str(cfg_path), "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: output_dir: ")
    assert target.read_text() == "not a directory\n"


def test_oracle_compare_small_instance():
    report = oracle_compare(_oracle_cfg())
    assert report.relative_gap <= 0.02
    assert len(report.gain_gaps) == 4


def test_oracle_compare_requires_linear_kernel():
    cfg = _oracle_cfg()
    cfg.solver.kernel_family = "gaussian-rbf"
    with pytest.raises(ConfigError):
        oracle_compare(cfg)


def test_oracle_compare_zero_weights_zero_gap():
    cfg = _oracle_cfg(oracle={"state_weight": 0.0, "terminal_weight": 0.0})
    report = oracle_compare(cfg)
    assert report.cost_policy == pytest.approx(0.0, abs=1e-12)
    assert report.cost_riccati == pytest.approx(0.0, abs=1e-12)
    assert report.relative_gap == 0.0


def test_online_command_runs_and_exports(tmp_path):
    cfg = config_from_mapping(
        {
            "mode": "online",
            "seed": 4,
            "output_dir": str(tmp_path / "run"),
            "scenario": {
                "n_cav": 2,
                "n_hdv": 1,
                "horizon": 20,
                "intersection_length": 4.0,
                "entry_offsets": [8.0, 10.0, 9.0],
                "desired_speeds": [5.0, 4.0, 4.5],
                "position_jitter": 1.0,
                "speed_range": [4.0, 5.0],
            },
            "solver": {
                "delta_lr": 2.0,
                "max_outer_iters": 3,
                "mc_samples": 1,
                "dict_size": 1,
                "convergence_tol": 1e-10,
            },
            "online": {"ident_steps": 10, "window": 4, "m0_scale": 1e6},
        }
    )
    p = _write_cfg(cfg, tmp_path / "cfg.yaml")
    assert main(["online", str(p)]) == 0
    out = Path(cfg.output_dir)
    ident = (out / "ident_trace.csv").read_text().strip().splitlines()
    assert ident[0] == "step,residual_norm,param_error"
    assert len(ident) == 1 + 10
    cost = (out / "cost_history.csv").read_text().strip().splitlines()
    assert len(cost) == 1 + 10  # horizon 20 minus 10 identification steps
    assert (out / "trajectories.csv").exists() and (out / "distances.csv").exists()


_SHORT_SOLVER = dict(
    delta_lr=st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
    max_outer_iters=st.integers(1, 2),
    mc_samples=st.integers(1, 4),
    dict_size=st.integers(1, 3),
    kernel_family=st.sampled_from(["gaussian-rbf", "linear", "polynomial"]),
    convergence_tol=st.just(0.0),
)


@st.composite
def _short_run(draw, mode):
    """A valid config of a tiny, short solve in the given mode."""
    data = {"mode": mode, "seed": draw(st.integers(0, 2**16))}
    if mode in ("offline", "online"):
        # online runs identify long enough for an unstable HDV to run away
        online = mode == "online"
        ident = draw(st.integers(10, 40)) if online else 0
        data["scenario"] = {
            "n_cav": draw(st.integers(1, 2)),
            "n_hdv": 1 if online else draw(st.integers(0, 1)),
            "horizon": ident + draw(st.integers(1, 3)),
            "hdv_gain": 10.0 ** draw(st.floats(-3.0, 9.0)),
        }
        data["solver"] = draw(st.fixed_dictionaries(_SHORT_SOLVER))
        if online:
            data["online"] = {"ident_steps": ident, "window": draw(st.integers(1, 3))}
    elif mode == "oracle-compare":
        data["oracle"] = {
            "horizon": draw(st.integers(1, 3)),
            "n_vehicles": draw(st.integers(1, 2)),
            "state_weight": draw(st.floats(0.0, 10.0)),
            "control_weight": draw(st.floats(1e-3, 10.0)),
            "scalar_check": False,
        }
        data["solver"] = draw(st.fixed_dictionaries({**_SHORT_SOLVER, "kernel_family": st.just("linear")}))
    else:
        data["probe"] = {
            "samples": draw(st.integers(2, 3)),
            "dict_size": draw(st.integers(1, 2)),
            "horizon": 2,
            "iterations": 1,
        }
    return data


# The shipped online scenario with an HDV whose speed grows 1e8-fold per step:
# identification must stop at the state guard, not overflow the estimator.
_RUNAWAY_HDV = {
    "mode": "online",
    "seed": 11,
    "scenario": {"n_cav": 2, "n_hdv": 1, "horizon": 45, "hdv_gain": 1.0e9},
    "solver": {"max_outer_iters": 2, "mc_samples": 1, "dict_size": 1},
    "online": {"ident_steps": 40, "window": 3},
}


@settings(max_examples=60, deadline=None)
@given(config=st.sampled_from(MODES).flatmap(_short_run))
@example(config=_RUNAWAY_HDV)
def test_short_solves_of_valid_configs_exit_cleanly(config):
    # every valid config ends in a documented exit code, never an exception:
    # 0 on success, 2 for a config the run refuses, 3 on divergence
    mode = config["mode"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump({**config, "output_dir": str(out)}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConflictingPathsWarning)
            code = main([mode, str(path)])
        assert code in (0, 2, 3)
        drawn = load_config(path)
        if code in (0, 3):
            assert dump_config(load_config(out / "metadata.yaml")) == dump_config(drawn)
        if mode in ("offline", "oracle-compare") and code == 0:
            tol = drawn.solver.inner_tol
            rows = (out / "cost_history.csv").read_text().strip().splitlines()[1:]
            assert rows
            costs = [float(row.split(",")[1]) for row in rows]
            for before, after in zip(costs, costs[1:]):
                assert after <= before + tol * (1.0 + abs(before))


def test_diverged_online_run_reports_where_it_diverged(tmp_path, capsys):
    # the shipped online run with a runaway HDV crosses the state guard during
    # identification: the exit status says so, and stderr and runtime.yaml
    # say at which step, in which phase and from what state norm
    data = yaml.safe_load((CONFIGS / "online_intersection.yaml").read_text())
    data["scenario"].update(hdv_gain=1.0e9, horizon=45)
    data["output_dir"] = str(tmp_path / "run")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["online", str(path)]) == 3
    runtime = yaml.safe_load((tmp_path / "run" / "runtime.yaml").read_text())
    assert runtime["diverged"] is True
    step = runtime["diverged_step"]
    assert isinstance(step, int) and 0 <= step < data["online"]["ident_steps"]
    err = capsys.readouterr().err
    # one stderr prefix for every exit 3
    assert err.startswith(f"divergence: online run diverged at step {step} ")
    assert "identification" in err and "state norm" in err
