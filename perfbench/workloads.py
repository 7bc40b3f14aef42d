"""The three benchmark workloads: inputs, the measured solve, checks and cost saved.

Every workload drives a shipped config through the package's public entry
points (run_offline_mode, run_online_mode, oracle_compare).  prepare() is the
set-up that setup_s measures; solve() is the call that solve_s measures;
check() and cost_saved() run afterwards, untimed, against the independent
models in reference.py.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import yaml

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Outer iterations per offline solve, and offline instances per run.
OFFLINE_ITERATIONS = 2
OFFLINE_INSTANCES = 5
# Instance seeds of one run are base, base + STRIDE, ...; the stride keeps the
# instances of neighbouring base seeds apart.
SEED_STRIDE = 10_000


class Failure(Exception):
    """The program raised one of its own simulation errors during a solve."""


class _Workload:
    name = ""
    config_file = ""

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.raw = yaml.safe_load((CONFIGS / self.config_file).read_text())

    def load(self):
        """Import the package with its entry points and load the shipped config."""
        import kernelpi.cli  # noqa: F401  (the entry points live here)
        from kernelpi.config import load_config

        return load_config(CONFIGS / self.config_file)

    def failed_ops(self, instance, result) -> int:
        return 0

    def run_solve(self, instance):
        from kernelpi import DivergenceError, PolicyIterationDiverged

        try:
            return self.solve(instance)
        except (DivergenceError, PolicyIterationDiverged) as exc:
            raise Failure(f"{type(exc).__name__}: {exc}") from exc


class OfflineIntersection(_Workload):
    """Shipped offline config, OFFLINE_ITERATIONS outer iterations per solve.

    A run cycles through OFFLINE_INSTANCES Monte Carlo batches drawn from the
    seed, so cost_saved averages over 250 initial states rather than 50.
    """

    name = "offline_intersection"
    config_file = "offline_intersection.yaml"

    def prepare(self, seed):
        from kernelpi.intersection import build_intersection, sample_initial_states
        from kernelpi.seeding import substreams

        cfg = self.load()
        base = cfg.seed if seed is None else seed
        iters = 1 if self.smoke else OFFLINE_ITERATIONS
        count = 1 if self.smoke else OFFLINE_INSTANCES
        scenario_cfg = cfg.scenario
        if self.smoke:
            scenario_cfg = dataclasses.replace(scenario_cfg, horizon=20)
        instances = []
        for r in range(count):
            s = base + SEED_STRIDE * r
            run_cfg = dataclasses.replace(
                cfg,
                seed=s,
                scenario=scenario_cfg,
                solver=dataclasses.replace(cfg.solver, max_outer_iters=iters),
            )
            scenario, *_ = build_intersection(run_cfg.scenario)
            rng = substreams(s, ("initial-states", "dictionary"))["initial-states"]
            x0 = sample_initial_states(scenario, rng, run_cfg.solver.mc_samples)
            instances.append({"seed": s, "cfg": run_cfg, "x0": x0})
        return instances

    def ops(self, instance) -> int:
        return instance["cfg"].solver.max_outer_iters

    def solve(self, instance):
        from kernelpi.cli import run_offline_mode

        return run_offline_mode(instance["cfg"])

    def _reference(self, instance):
        sc = dict(self.raw["scenario"], horizon=instance["cfg"].scenario.horizon)
        A, B = ref.team_matrices(sc["n_cav"], sc["n_hdv"], sc["dt"])
        return sc, A, B, ref.IntersectionCost(sc)

    def check(self, instance, result) -> dict:
        _scenario, policy, records, batch = result
        cfg = instance["cfg"]
        sc, A, B, cost = self._reference(instance)
        T = sc["horizon"]
        x0 = ref.intersection_states(instance["seed"], sc, cfg.solver.mc_samples)
        slack = cfg.solver.inner_tol * T
        costs = [r.cost for r in records] + [records[-1].cost_after]
        gaps_ok = all(
            bool(np.all(r.stage_secant_gaps <= cfg.solver.inner_tol * (1.0 + abs(r.cost))))
            for r in records
        )
        j_final = self._final_cost(policy, A, B, cost, x0, T)
        target = records[-1].cost_after
        return {
            "initial_states_match_config": bool(
                np.array_equal(instance["x0"], x0) and np.array_equal(batch.states[:, 0], x0)
            ),
            "iterations_run": len(records) == cfg.solver.max_outer_iters,
            "cost_never_rises": all(b <= a + slack for a, b in zip(costs, costs[1:])),
            "secant_gaps_small": gaps_ok,
            "resimulated_cost_matches": abs(j_final - target) <= 1e-9 * (1.0 + abs(target)),
        }

    @staticmethod
    def _final_cost(policy, A, B, cost, x0, T) -> float:
        ell = policy.kernel.length_scale
        stages = policy.stages

        def controls(t, X):
            st = stages[t]
            return ref.rbf_controls(X, st.dictionary.points, st.coefficients, ell)

        return float(ref.simulate_cost(A, B, cost.stage, cost.terminal, x0, controls, T).mean())

    def cost_saved(self, instance, result) -> float:
        _scenario, policy, _records, _batch = result
        sc, A, B, cost = self._reference(instance)
        T = sc["horizon"]
        x0 = ref.intersection_states(instance["seed"], sc, instance["cfg"].solver.mc_samples)
        zero = ref.simulate_cost(
            A, B, cost.stage, cost.terminal, x0, lambda t, X: np.zeros((X.shape[0], B.shape[1])), T
        ).mean()
        return float(zero - self._final_cost(policy, A, B, cost, x0, T))


class OnlineIntersection(_Workload):
    """Shipped online config run to its end: 40 RLS steps, then 80 planning windows.

    The instance is the shipped one (config seed) whatever the run seed: a
    single closed loop has no batch to average over, so its cost and its
    work are properties of the drawn instance, not of the code.
    """

    name = "online_intersection"
    config_file = "online_intersection.yaml"

    def prepare(self, seed):
        from kernelpi.intersection import build_intersection, sample_initial_states
        from kernelpi.seeding import substreams

        cfg = self.load()
        if self.smoke:
            cfg = dataclasses.replace(
                cfg, scenario=dataclasses.replace(cfg.scenario, horizon=cfg.online.ident_steps + 6)
            )
        scenario, *_ = build_intersection(cfg.scenario)
        names = ("initial-state", "excitation", "window-dictionary")
        x0 = sample_initial_states(scenario, substreams(cfg.seed, names)["initial-state"], 1)
        self._estimates = []
        self._capture_estimate()
        return [{"seed": cfg.seed, "cfg": cfg, "x0": x0}]

    def _capture_estimate(self) -> None:
        """Keep the identified (A_hat, B_hat) that run_online plans with."""
        import kernelpi.online as online

        original = online.estimate
        estimates = self._estimates

        def estimate(state):
            out = original(state)
            estimates.append(out)
            return out

        online.estimate = estimate

    def ops(self, instance) -> int:
        return instance["cfg"].scenario.horizon

    def solve(self, instance):
        from kernelpi.cli import run_online_mode

        return run_online_mode(instance["cfg"])

    def failed_ops(self, instance, result) -> int:
        _scenario, log = result
        unexecuted = instance["cfg"].scenario.horizon - len(log.steps)
        return unexecuted + sum(bool(r.window_rejected) for r in log.planning_steps)

    def _reference(self, instance):
        sc = dict(self.raw["scenario"], horizon=instance["cfg"].scenario.horizon)
        A, B = ref.team_matrices(sc["n_cav"], sc["n_hdv"], sc["dt"], sc["hdv_gain"])
        return sc, A, B, ref.IntersectionCost(sc)

    def check(self, instance, result) -> dict:
        _scenario, log = result
        cfg = instance["cfg"]
        sc, A, B, cost = self._reference(instance)
        k = cfg.online.ident_steps
        X, U = log.states, log.controls
        plan = log.planning_steps
        tol = cfg.solver.inner_tol
        replay = X[:-1] @ A.T + U @ B.T
        replay_err = np.abs(replay - X[1:]) / (1.0 + np.abs(X[1:]))
        A_hat, B_hat = self._estimates[-1]
        rls_err = float(np.linalg.norm(np.hstack([A_hat - A, B_hat - B])))
        d_min = float(ref.pair_distances(X[k:], cost.origins, cost.dirs).min())
        x0 = ref.intersection_states(instance["seed"], sc, 1)
        return {
            "initial_state_matches_config": bool(
                np.array_equal(instance["x0"], x0) and np.array_equal(X[:1], x0)
            ),
            "ran_to_end": (not log.diverged) and len(plan) == sc["horizon"] - k,
            "no_window_rejected": not any(r.window_rejected for r in plan),
            "windows_descend": all(r.window_cost_after <= r.window_cost_before + tol for r in plan),
            "states_replay_on_true_plant": bool(replay_err.max() <= 1e-12),
            "rls_error_small": rls_err <= 1e-3,
            "safety_distance_kept": d_min > sc["safety_distance"],
        }

    def cost_saved(self, instance, result) -> float:
        _scenario, log = result
        sc, A, _B, cost = self._reference(instance)
        k = instance["cfg"].online.ident_steps
        X, U = log.states[k:], log.controls[k:]
        achieved = float(cost.stage(X[:-1], U).sum() + cost.terminal(X[-1]))
        coast = [X[0]]
        for _ in range(U.shape[0]):
            coast.append(A @ coast[-1])
        C = np.array(coast)
        baseline = float(cost.stage(C[:-1], np.zeros_like(U)).sum() + cost.terminal(C[-1]))
        return baseline - achieved


class OracleLqr(_Workload):
    """Shipped oracle config run to convergence, plus the scalar instance.

    Like the online workload it keeps the shipped instance: the sweeps and
    objective evaluations to convergence vary up to twofold between seeds.
    """

    name = "oracle_lqr"
    config_file = "oracle_lqr.yaml"

    def prepare(self, seed):
        cfg = self.load()
        if self.smoke:
            cfg = dataclasses.replace(cfg, oracle=dataclasses.replace(cfg.oracle, horizon=3))
        return [{"seed": cfg.seed, "cfg": cfg}]

    def ops(self, instance) -> int:
        return 2 if instance["cfg"].oracle.scalar_check else 1

    def solve(self, instance):
        from kernelpi.cli import oracle_compare

        return oracle_compare(instance["cfg"])

    def _reference(self, instance):
        cfg = instance["cfg"]
        oc = dict(self.raw["oracle"], horizon=cfg.oracle.horizon)
        V = oc["n_vehicles"]
        A, B = ref.team_matrices(V, 0, oc["dt"])
        n = 2 * V
        Q = oc["state_weight"] * np.eye(n)
        R = oc["control_weight"] * np.eye(V)
        QF = oc["terminal_weight"] * np.eye(n)
        x0 = ref.oracle_states(instance["seed"], oc, cfg.solver.mc_samples)
        return oc, A, B, Q, R, QF, x0

    def check(self, instance, result) -> dict:
        report = result
        oc, A, B, Q, R, QF, x0 = self._reference(instance)
        P0 = ref.riccati_value(A, B, Q, R, QF, oc["horizon"])
        optimum = float(np.einsum("ni,ij,nj->n", x0, P0, x0).mean())
        gap = (report.cost_policy - optimum) / optimum
        return {
            "program_riccati_matches": abs(report.cost_riccati - optimum) <= 1e-9 * optimum,
            "gap_within_2pct": -1e-9 <= gap <= 0.02,
            "scalar_gain_near_minus_half": abs(report.scalar_gain + 0.5) <= 1e-3,
        }

    def cost_saved(self, instance, result) -> float:
        oc, A, B, Q, R, QF, x0 = self._reference(instance)

        def zero(t, X):
            return np.zeros((X.shape[0], B.shape[1]))

        def stage(X, U):
            return np.einsum("ni,ij,nj->n", X, Q, X) + np.einsum("ni,ij,nj->n", U, R, U)

        def terminal(X):
            return np.einsum("ni,ij,nj->n", X, QF, X)

        baseline = ref.simulate_cost(A, B, stage, terminal, x0, zero, oc["horizon"]).mean()
        return float(baseline - result.cost_policy)


WORKLOADS = {w.name: w for w in (OfflineIntersection, OnlineIntersection, OracleLqr)}
