"""Command-line entry points and table export.

Subcommands: offline, online, oracle-compare, complexity-probe.  Each takes a
YAML config; --seed overrides the configured seed and --out the output
directory, which main creates before the mode runs.  Exit status is 0 on
success, 2 on configuration or validation errors (an output directory that
cannot be created included), 3 on simulation divergence.

Each mode hands export_run its named tables: the run tables of a policy
iteration (offline, oracle-compare, which with scalar_check adds the scalar
instance's, prefixed scalar_), the scenario tables of its trajectories
(offline, online) and its own (ident_trace.csv, oracle_summary.csv and
gain_gaps.csv, probe.csv).  A solve that raises PolicyIterationDiverged, in
any mode, writes the run tables of the iterations it finished and
metadata.yaml, and exits 3.

Exported tables are comma-separated with one header row, floats printed with
17 significant digits so re-running an identical config and seed reproduces
the files byte for byte.  Wall-clock timings go to a separate runtime.yaml
because they are inherently non-reproducible; metadata.yaml holds the fully
resolved configuration and reloads as a valid config.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .config import ConfigError, RunConfig, dump_config, load_config, online_config
from .costs import CostSpec
from .dynamics import DivergenceError, LinearSystem, assemble_team_system, discretize_double_integrator
from .intersection import Scenario, build_intersection, pairwise_distances, sample_initial_states
from .offline import (
    PolicyIterationDiverged,
    SingularGramError,
    SolverConfig,
    complexity_probe,
    policy_iteration,
)
from .online import run_online
from .riccati import lqr_cost, riccati_backward

__all__ = ["main", "export_run", "oracle_compare", "OracleReport", "run_offline_mode", "run_online_mode"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _traj_header(n_vehicles: int):
    cols = ["sample", "time"]
    for i in range(1, n_vehicles + 1):
        cols += [f"veh{i}_arc", f"veh{i}_x", f"veh{i}_y", f"veh{i}_speed", f"veh{i}_accel"]
    return cols


def _trajectory_rows(states: np.ndarray, scenario: Scenario, sample: int):
    """Rows for one trajectory; accelerations are finite speed differences."""
    from .intersection import positions_from_states

    T = states.shape[0] - 1
    pos = positions_from_states(states, scenario)
    rows = []
    for t in range(T + 1):
        row = [sample, t]
        for i in range(scenario.n_vehicles):
            arc = states[t, 2 * i]
            speed = states[t, 2 * i + 1]
            if t < T:
                accel = (states[t + 1, 2 * i + 1] - speed) / scenario.dt
            else:
                accel = None
            row += [arc, pos[t, i, 0], pos[t, i, 1], speed, accel]
        rows.append(row)
    return rows


def _distance_rows(states: np.ndarray, scenario: Scenario):
    pairs, vals = pairwise_distances(states, scenario)
    rows = []
    for t in range(vals.shape[0]):
        for p, (i, j) in enumerate(pairs):
            rows.append([t, f"{i + 1}-{j + 1}", vals[t, p]])
    return rows


_COST_HISTORY = ["index", "cost", "delta_pi_sq"]

# one row per stage update: the outer iteration, the stage, then
# StageUpdateResult fields
_STAGE_TRACE = [
    "iteration",
    "stage",
    "accepted",
    "reason",
    "first_trial",
    "evals",
    "tail_calls",
    "tail_row_stages",
    "backward_row_stages",
    "value_step_sq",
    "secant_gap",
]


def _run_tables(records) -> dict:
    """cost_history.csv and stage_trace.csv of a policy iteration's IterationRecords."""
    costs = [[r.iteration, r.cost, r.total_step_sq] for r in records]
    trace = [
        [r.iteration, t] + [getattr(s, c) for c in _STAGE_TRACE[2:]]
        for r in records
        for t, s in enumerate(r.stages)
    ]
    return {"cost_history.csv": (_COST_HISTORY, costs), "stage_trace.csv": (_STAGE_TRACE, trace)}


def _scenario_tables(states: np.ndarray, scenario: Scenario) -> dict:
    """trajectories.csv of every (T+1, n) trajectory in states, distances.csv of the first."""
    rows = [row for i, x in enumerate(states) for row in _trajectory_rows(x, scenario, i)]
    return {
        "trajectories.csv": (_traj_header(scenario.n_vehicles), rows),
        "distances.csv": (["time", "pair", "distance"], _distance_rows(states[0], scenario)),
    }


def export_run(out_dir, cfg: RunConfig, tables: dict, runtime: Optional[dict] = None) -> None:
    """Write each named (header, rows) table, metadata.yaml and, when given, runtime.yaml.

    out_dir must exist; main creates it before the mode runs.
    """
    out = Path(out_dir)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    (out / "metadata.yaml").write_text(yaml.safe_dump(dump_config(cfg), sort_keys=True))
    if runtime is not None:
        (out / "runtime.yaml").write_text(yaml.safe_dump(runtime, sort_keys=True))


# ---------------------------------------------------------------------------
# mode runners


def run_offline_mode(cfg: RunConfig):
    """Full-horizon policy iteration on the configured intersection.

    Returns (scenario, policy, records, batch), with batch the solve's
    trajectories of the returned policy (policy_iteration).
    """
    scenario, learner, _plant, cost = build_intersection(cfg.scenario)

    def sampler(rng, N):
        return sample_initial_states(scenario, rng, N)

    policy, records, batch = policy_iteration(
        learner, cost, sampler, cfg.solver, horizon=cfg.scenario.horizon, seed=cfg.seed
    )
    return scenario, policy, records, batch


def run_online_mode(cfg: RunConfig):
    """Identification followed by receding-horizon control on the plant."""
    scenario, _learner, plant, cost = build_intersection(cfg.scenario)
    log = run_online(plant, online_config(cfg), cost, scenario=scenario)
    return scenario, log


@dataclass
class OracleReport:
    """Comparison of learned policy cost against the exact backward recursion."""

    cost_policy: float
    cost_riccati: float
    relative_gap: float
    gain_gaps: list  # per stage, Frobenius gap between learned and optimal gains
    scalar_gain: Optional[float] = None
    scalar_gain_error: Optional[float] = None


def _oracle_system(n_vehicles: int, dt: float) -> LinearSystem:
    base = discretize_double_integrator(dt)
    return assemble_team_system([base for _ in range(n_vehicles)])


def oracle_compare(cfg: RunConfig) -> OracleReport:
    """Run the solver on a penalty-free quadratic instance and compare.

    The instance has no penalty terms, so the quadratic backward recursion is
    its exact solution.  Requires the linear kernel; any other kernel is
    refused with a ConfigError.
    """
    return _solve_oracle(cfg)[0]


def _solve_oracle(cfg: RunConfig) -> tuple:
    """oracle_compare's report, the IterationRecords of the solve it compared and the scalar check's.

    The scalar check's records are None when scalar_check is off.
    """
    oc = cfg.oracle
    if cfg.solver.kernel_family != "linear":
        raise ConfigError("solver.kernel_family: oracle comparison requires the linear kernel")
    sys_ = _oracle_system(oc.n_vehicles, oc.dt)
    n, m = sys_.n, sys_.m
    Q = oc.state_weight * np.eye(n)
    R = oc.control_weight * np.eye(m)
    Q_F = oc.terminal_weight * np.eye(n)
    spec = CostSpec(Q=Q, R=R, Q_F=Q_F)

    def sampler(rng, N):
        X = np.empty((N, n))
        X[:, 0::2] = rng.uniform(*oc.position_range, size=(N, oc.n_vehicles))
        X[:, 1::2] = rng.uniform(*oc.speed_range, size=(N, oc.n_vehicles))
        return X

    policy, records, batch = policy_iteration(
        sys_, spec, sampler, cfg.solver, horizon=oc.horizon, seed=cfg.seed
    )
    cost_policy = records[-1].cost_after
    sol = riccati_backward(sys_, Q, R, Q_F, oc.horizon)
    cost_r = lqr_cost(sol, batch.states[:, 0])
    gap = (cost_policy - cost_r) / cost_r if cost_r > 0 else 0.0
    gain_gaps = []
    for t, stage in enumerate(policy.stages):
        W = stage.coefficients.T @ stage.dictionary.points  # u = W x for the linear kernel
        gain_gaps.append(float(np.linalg.norm(W + sol.K[t])))

    scalar_gain = scalar_err = scalar_records = None
    if oc.scalar_check:
        scalar_gain, scalar_records = _scalar_instance_gain(cfg.seed)
        scalar_err = abs(scalar_gain + 0.5)
    report = OracleReport(
        cost_policy=float(cost_policy),
        cost_riccati=float(cost_r),
        relative_gap=float(gap),
        gain_gaps=gain_gaps,
        scalar_gain=scalar_gain,
        scalar_gain_error=scalar_err,
    )
    return report, records, scalar_records


def _scalar_instance_gain(seed: int) -> tuple:
    """Learned feedback gain on the one-step scalar instance (optimum -0.5) and its IterationRecords."""
    sys_ = LinearSystem(A=[[1.0]], B=[[1.0]])
    spec = CostSpec(Q=[[1.0]], R=[[1.0]], Q_F=[[1.0]])
    cfg = SolverConfig(
        delta_lr=32.0,
        max_outer_iters=200,
        mc_samples=32,
        dict_size=3,
        kernel_family="linear",
        convergence_tol=1.0e-14,
    )

    def sampler(rng, N):
        return rng.uniform(0.5, 1.5, size=(N, 1))

    policy, records, _ = policy_iteration(sys_, spec, sampler, cfg, horizon=1, seed=seed)
    stage = policy.stages[0]
    return float((stage.coefficients.T @ stage.dictionary.points).item()), records


# ---------------------------------------------------------------------------
# command dispatch


def _cmd_offline(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    scenario, policy, records, batch = run_offline_mode(cfg)
    runtime = {
        "wall_time_total": time.perf_counter() - t0,
        "iterations": len(records),
        "final_cost": float(records[-1].cost_after),
    }
    tables = {**_run_tables(records), **_scenario_tables(batch.states, scenario)}
    export_run(out_dir, cfg, tables, runtime)
    print(
        f"offline: {len(records)} iterations, cost {records[0].cost:.6g} -> "
        f"{records[-1].cost_after:.6g}, results in {out_dir}"
    )
    return 0


def _cmd_online(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.perf_counter()
    scenario, log = run_online_mode(cfg)
    runtime = {
        "wall_time_total": time.perf_counter() - t0,
        "min_distance": log.min_distance,
        "min_distance_post_ident": log.min_distance_post_ident,
        "max_state_norm": log.max_state_norm,
        "pe_status": log.pe_result.status,
        "diverged": log.diverged,
        "diverged_step": log.diverged_step,
    }
    costs = [[r.step, r.window_cost_after, r.window_step_sq] for r in log.planning_steps]
    ident = [[r.step, r.residual_norm, r.param_error] for r in log.identification_steps]
    tables = {
        "cost_history.csv": (_COST_HISTORY, costs),
        "ident_trace.csv": (["step", "residual_norm", "param_error"], ident),
        **_scenario_tables(log.states[None], scenario),
    }
    export_run(out_dir, cfg, tables, runtime)
    if log.diverged:
        phase = "identification" if log.diverged_step < cfg.online.ident_steps else "planning"
        norm = float(np.linalg.norm(log.states[-1]))
        print(
            f"divergence: online run diverged at step {log.diverged_step} ({phase} phase): the next "
            f"plant state crossed the state guard; last state norm {norm:.6g}",
            file=sys.stderr,
        )
    print(
        f"online: {len(log.steps)} steps, min distance post-identification "
        f"{log.min_distance_post_ident:.3f} m, results in {out_dir}"
    )
    return 3 if log.diverged else 0


def _cmd_oracle(cfg: RunConfig, out_dir: Path) -> int:
    report, records, scalar_records = _solve_oracle(cfg)
    quantities = ["cost_policy", "cost_riccati", "relative_gap"]
    if report.scalar_gain is not None:
        quantities += ["scalar_gain", "scalar_gain_error"]
    summary = [[q, getattr(report, q)] for q in quantities]
    tables = {
        **_run_tables(records),
        "oracle_summary.csv": (["quantity", "value"], summary),
        "gain_gaps.csv": (["stage", "gain_gap"], list(enumerate(report.gain_gaps))),
    }
    if scalar_records is not None:
        tables.update(("scalar_" + name, t) for name, t in _run_tables(scalar_records).items())
    export_run(out_dir, cfg, tables)
    print(
        f"oracle-compare: policy cost {report.cost_policy:.6g} vs exact {report.cost_riccati:.6g} "
        f"(relative gap {report.relative_gap:.3%})"
    )
    if report.scalar_gain is not None:
        print(f"oracle-compare: scalar instance gain {report.scalar_gain:.6f} (target -0.5)")
    return 0


def _cmd_probe(cfg: RunConfig, out_dir: Path) -> int:
    pr = cfg.probe
    base = (pr.samples, pr.dict_size, pr.horizon)
    points = [
        base,
        (2 * pr.samples, pr.dict_size, pr.horizon),
        (pr.samples, 2 * pr.dict_size, pr.horizon),
        (pr.samples, pr.dict_size, 2 * pr.horizon),
    ]
    rows = complexity_probe(points, iterations=pr.iterations, seed=cfg.seed)
    columns = [
        "mc_samples",
        "dict_size",
        "horizon",
        "seconds_per_iteration",
        "row_stages_per_iteration",
    ]
    probe = [[getattr(r, c) for c in columns] for r in rows]
    export_run(out_dir, cfg, {"probe.csv": (columns, probe)})
    for r in rows:
        print(
            f"probe: N={r.mc_samples} M={r.dict_size} T={r.horizon} "
            f"-> {r.seconds_per_iteration:.4f} s/iteration, "
            f"{r.row_stages_per_iteration:.0f} row-stages/iteration"
        )
    return 0


_COMMANDS = {
    "offline": _cmd_offline,
    "online": _cmd_online,
    "oracle-compare": _cmd_oracle,
    "complexity-probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernelpi",
        description="Kernel policy iteration for finite-horizon team control",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} mode")
        sp.add_argument("config", help="path to a YAML run configuration")
        sp.add_argument("--seed", type=int, default=None, help="override the configured seed")
        sp.add_argument("--out", default=None, help="override the configured output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.mode != args.command:
            raise ConfigError(
                f"mode: config declares {cfg.mode!r} but the {args.command!r} command was invoked"
            )
        if args.seed is not None:
            try:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        out_dir = Path(cfg.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output_dir: {exc}") from exc
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularGramError as exc:
        print(f"config error: solver.ridge: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, PolicyIterationDiverged) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        export_run(out_dir, cfg, _run_tables(getattr(exc, "records", [])))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
