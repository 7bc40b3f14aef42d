#!/usr/bin/env python3
"""kernelpi benchmark: the shipped offline, online and oracle solves, end to end.

    python3 perfbench/run.py --workload offline_intersection --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; nothing needs installing, the
package is imported from ./src.  With --trace 0 a run measures the
end-to-end metrics with tracing off; with --trace 1 it alternates untraced
and traced solves and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (machine, numpy/BLAS, git SHA, checks, round times, and for
traced runs the spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# or in the set-up probes it starts (they inherit the environment).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _checkout_ok() -> bool:
    return (SRC / "kernelpi" / "__init__.py").is_file() and (ROOT / "configs").is_dir()


def probe_setup(name: str, seed) -> int:
    """Child-process body: set the workload up from a fresh interpreter, print when ready."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.prepare(seed)
    print(repr(time.monotonic()))
    return 0


def measure_setup(name: str, seed) -> list:
    """Seconds from starting a fresh interpreter until the workload is ready, per probe.

    CLOCK_MONOTONIC is shared by all processes, so the child's ready time and
    the parent's start time are on one clock.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", name]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def _git_sha():
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")
    except TypeError:
        blas = None
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "numpy": np.__version__,
        "numpy_config": blas,
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
    }


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def run(name: str, seed, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from tracing import Tracer, layer_metrics, tail_breakdown
    from workloads import WORKLOADS, Failure

    wl = WORKLOADS[name](smoke=smoke)
    setup_times = [] if (trace or smoke) else measure_setup(name, seed)
    instances = wl.prepare(seed)

    attempted = failed = 0
    checks: dict = {}
    saved: dict = {}
    plain, traced = [], []
    tracer = Tracer() if trace else None
    latency = Tracer(layers=("online.plan_window",))
    solves = 2 if trace else 1
    started = time.perf_counter()
    r = 0
    # Every instance is solved at least once (cost_saved covers all of them);
    # further whole rounds repeat while the run has time left.  A traced run's
    # round is an untraced and a traced solve of the same instance.
    while r < len(instances) or time.perf_counter() - started < seconds:
        inst = instances[r % len(instances)]
        r += 1
        ops = wl.ops(inst) * solves
        attempted += ops
        try:
            if trace:
                latency.install()
            try:
                result, dt = _timed(wl.run_solve, inst)
            finally:
                latency.uninstall()
            plain.append(dt)
            if trace:
                tracer.install()
                try:
                    result, dt = _timed(tracer.root, wl.run_solve, inst)
                finally:
                    tracer.uninstall()
                traced.append(dt)
        except Failure as exc:
            print(f"perfbench: {name} instance {inst['seed']}: {exc}", file=sys.stderr)
            failed += ops
            if smoke:
                break
            continue
        failed += wl.failed_ops(inst, result) * solves
        if inst["seed"] not in checks:
            checks[inst["seed"]] = wl.check(inst, result)
            saved[inst["seed"]] = wl.cost_saved(inst, result)
        if smoke:
            break

    if not checks:
        raise RuntimeError(f"{name}: every round failed; nothing to report")
    correct = all(all(c.values()) for c in checks.values())
    if trace:
        metrics = layer_metrics(tracer, len(traced), latency)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cost_saved": statistics.fmean(saved.values()),
        }
        units = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "cost_saved": "cost"}

    record = {
        "workload": name,
        "seed": seed,
        "instances": [i["seed"] for i in instances],
        "trace": trace,
        "seconds": seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "checks": {str(k): v for k, v in checks.items()},
        "cost_saved_by_instance": {str(k): v for k, v in saved.items()},
        "setup_probe_s": setup_times,
        "solve_round_s": plain,
        "traced_round_s": traced,
        "environment": environment(),
    }
    if trace:
        record["tail_values_by_rows"] = tail_breakdown(tracer)
    if not smoke:
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        if trace:
            tracer.save(OUT / f"{stem}-spans.npz")
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=_jsonable))
    return record


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("us_per_row_stage"):
        return "us"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def smoke() -> int:
    """Each workload once, shrunk, traced, with all of its checks."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        rec, dt = _timed(lambda: run(name, seed=None, seconds=0.0, trace=True, smoke=True))
        bad = [k for c in rec["checks"].values() for k, v in c.items() if not v]
        good = rec["correct"] and rec["failed"] == 0
        ok &= good
        verdict = "ok" if good else "FAILED"
        print(f"{name}: {verdict} in {dt:.1f} s; failing checks: {bad or 'none'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", choices=["offline_intersection", "online_intersection", "oracle_lqr"]
    )
    p.add_argument("--seed", type=int, help="workload seed (default: the config's own)")
    p.add_argument("--seconds", type=float, default=25.0, help="time for repeated rounds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="every workload briefly, with its checks")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not _checkout_ok():
        return _fail(f"no kernelpi source checkout at {ROOT} (need src/kernelpi and configs/)")
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        return _fail("--workload is required")
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
