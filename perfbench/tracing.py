"""Span tracing around the public functions of kernelpi's modules.

A Tracer replaces a function in every kernelpi module that holds a reference
to it (the module that looks the name up at call time), and a method on its
class.  Each call records a span (name, start, end, parent) in memory; the
spans are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children, which nest strictly because the
program runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref

import numpy as np

# span name -> (defining module, attribute); "Class.method" patches the class.
LAYERS = {
    "offline.run_policy_iteration": ("kernelpi.offline", "run_policy_iteration"),
    "offline.stage_update": ("kernelpi.offline", "solve_implicit_update"),
    "costs.tail_values": ("kernelpi.costs", "TailEvaluator.values"),
    "costs.stage_cost": ("kernelpi.costs", "stage_cost"),
    "costs.collision_penalty": ("kernelpi.costs", "collision_penalty"),
    "costs.evaluate_cost_to_go": ("kernelpi.costs", "evaluate_cost_to_go"),
    "intersection.positions_from_states": ("kernelpi.intersection", "positions_from_states"),
    "dynamics.rollout": ("kernelpi.dynamics", "rollout"),
    "kernels.cross_gram": ("kernelpi.kernels", "cross_gram"),
    "kernels.eval_policy_batch": ("kernelpi.kernels", "eval_policy_batch"),
    "kernels.gram_matrix": ("kernelpi.kernels", "gram_matrix"),
    "online.plan_window": ("kernelpi.online", "plan_window"),
    "online.shift_warm_start": ("kernelpi.online", "shift_warm_start"),
    "rls.rls_update": ("kernelpi.rls", "rls_update"),
    "riccati.riccati_backward": ("kernelpi.riccati", "riccati_backward"),
}

ROOT = "solve"


class Tracer:
    """Collects spans while installed; install() and uninstall() bracket a traced solve."""

    def __init__(self, layers=tuple(LAYERS)):
        self.layers = layers
        self.names = [ROOT] + list(LAYERS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        # per tail_values span: rows and stages simulated; per stage_update span:
        # evaluations and acceptance; per run_policy_iteration span: sweeps;
        # per plan_window span: whether the window was rejected
        self.extra: dict = {}
        self._stack = [-1]
        self._patches: list = []
        self._tail_stages = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, annotate=None):
        idx = len(self.name_id)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if annotate is not None:
            self.extra[idx] = annotate(self, args, out)
        return out

    def root(self, fn, *args, **kwargs):
        return self.span(ROOT, fn, args, kwargs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if "costs.tail_values" in self.layers:
            self._hook_tail_constructor()
        for name in self.layers:
            modname, attr = LAYERS[name]
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, getattr(cls, meth), name)
                continue
            original = getattr(mod, attr)
            holders = [m for k, m in sys.modules.items() if k.split(".")[0] == "kernelpi"]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, name)

    def _hook_tail_constructor(self) -> None:
        """Remember how many stages each TailEvaluator re-simulates.

        Only the public constructor arguments are read: the evaluator covers
        stages start_stage .. policy.horizon - 1.
        """
        cls = importlib.import_module("kernelpi.costs").TailEvaluator
        original = cls.__init__
        signature = inspect.signature(original)
        stages = self._tail_stages

        @functools.wraps(original)
        def init(*args, **kwargs):
            original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            stages[bound["self"]] = bound["policy"].horizon - bound["start_stage"]

        cls.__init__ = init
        self._patches.append((cls, "__init__", original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _patch(self, holder, key, original, name) -> None:
        annotate = _ANNOTATE.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.span(name, original, args, kwargs, annotate)

        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        ids = np.asarray(self.name_id, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return ids, parent, dur, dur - child

    def save(self, path) -> None:
        """Write every span as columns: name id, start, end, parent index."""
        ids, parent, _, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=ids,
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=parent,
        )


def _tail_shape(tracer, args, out):
    evaluator, states = args[0], args[1]
    rows = np.atleast_2d(np.asarray(states)).shape[0]
    return rows, tracer._tail_stages.get(evaluator, 0)


def _stage_result(tracer, args, out):
    return out.evals, out.accepted


def _sweeps(tracer, args, out):
    return len(out[1])


def _window(tracer, args, out):
    return out.rejected


_ANNOTATE = {
    "costs.tail_values": _tail_shape,
    "offline.stage_update": _stage_result,
    "offline.run_policy_iteration": _sweeps,
    "online.plan_window": _window,
}


def layer_metrics(tracer: Tracer, rounds: int, latency: Tracer) -> dict:
    """Per-layer figures for one solve, averaged over the traced rounds.

    Planning-window latencies come from `latency`, a tracer that covered only
    online.plan_window, so they carry no overhead from spans nested inside.
    """
    ids, parent, dur, self_t = tracer.arrays()
    names = tracer.names

    def sel(name):
        return np.flatnonzero(ids == names.index(name))

    def per_round(x):
        return float(x) / rounds

    def self_s(name):
        return per_round(self_t[sel(name)].sum())

    def calls(name):
        return per_round(sel(name).size)

    out = {}
    su = sel("offline.stage_update")
    su_extra = [tracer.extra[i] for i in su]
    tv = sel("costs.tail_values")
    tail_parents = parent[tv]
    under_update = np.isin(tail_parents, su).sum()
    n_su = max(su.size, 1)
    out["offline.stage_update.calls"] = calls("offline.stage_update")
    out["offline.stage_update.self_s"] = self_s("offline.stage_update")
    out["offline.stage_update.evals_per_call"] = sum(e for e, _ in su_extra) / n_su
    out["offline.stage_update.tail_calls_per_call"] = float(under_update) / n_su
    out["offline.stage_update.accepted_ratio"] = sum(bool(a) for _, a in su_extra) / n_su
    out["offline.sweeps"] = per_round(
        sum(tracer.extra[i] for i in sel("offline.run_policy_iteration"))
    )

    shapes = [tracer.extra[i] for i in tv]
    rows = sum(r for r, _ in shapes)
    row_stages = sum(r * s for r, s in shapes)
    out["costs.tail_values.calls"] = calls("costs.tail_values")
    out["costs.tail_values.rows_per_call"] = rows / max(tv.size, 1)
    out["costs.tail_values.self_s"] = self_s("costs.tail_values")
    out["costs.tail_values.us_per_row_stage"] = (
        1e6 * float(dur[tv].sum()) / row_stages if row_stages else 0.0
    )

    for name in (
        "costs.stage_cost",
        "costs.collision_penalty",
        "intersection.positions_from_states",
        "costs.evaluate_cost_to_go",
        "kernels.eval_policy_batch",
        "kernels.gram_matrix",
        "online.shift_warm_start",
        "riccati.riccati_backward",
    ):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("dynamics.rollout", "kernels.cross_gram", "rls.rls_update"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)

    pw = sel("online.plan_window")
    lat_ids, _, lat_dur, _ = latency.arrays()
    ms = np.sort(lat_dur[lat_ids == names.index("online.plan_window")]) * 1e3
    out["online.plan_window.calls"] = calls("online.plan_window")
    out["online.plan_window.p50_ms"] = float(np.median(ms)) if ms.size else 0.0
    out["online.plan_window.p87_ms"] = nearest_rank(ms, 0.87)
    out["online.windows_rejected"] = per_round(sum(bool(tracer.extra[i]) for i in pw))
    return out


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Smallest value with at least a share q of the samples at or below it."""
    n = sorted_values.size
    if n == 0:
        return 0.0
    return float(sorted_values[max(int(np.ceil(q * n)) - 1, 0)])


def tail_breakdown(tracer: Tracer) -> dict:
    """Inclusive microseconds per row-stage of TailEvaluator.values, by row count."""
    ids, _, dur, _ = tracer.arrays()
    tv = np.flatnonzero(ids == tracer.names.index("costs.tail_values"))
    groups: dict = {}
    for i in tv:
        rows, stages = tracer.extra[i]
        g = groups.setdefault(rows, [0, 0.0, 0])
        g[0] += 1
        g[1] += float(dur[i])
        g[2] += stages
    return {
        str(rows): {
            "calls": c,
            "us_per_stage": 1e6 * t / s if s else 0.0,
            "us_per_row_stage": 1e6 * t / (s * rows) if s else 0.0,
        }
        for rows, (c, t, s) in sorted(groups.items())
    }
