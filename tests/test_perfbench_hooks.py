"""The perfbench tracer still finds the functions it hooks.

perfbench/tracing.py wraps kernelpi functions by module and name and reads
fields of what they return.  A refactor that renames or bypasses one of them
leaves the benchmark running but its per-layer counters at zero; this test
runs each workload's shrunk, traced smoke solve and checks those counters.
The solves run in a child process so that run.py's BLAS thread pinning stays
out of the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("offline_intersection", "online_intersection", "oracle_lqr")
HOOKED = (
    "offline.stage_update.calls",
    "offline.stage_update.tail_calls_per_call",
    "costs.tail_values.calls",
    "kernels.cross_gram.calls",
    "dynamics.rollout.calls",
)
# Layers only some workloads reach: the intersection geometry is read by the
# online loop's distance summary, not by the oracle's penalty-free instance.
HOOKED_BY_WORKLOAD = {"online_intersection": ("intersection.positions_from_states.self_s",)}

CHILD = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import run
out = {{}}
for name in {workloads!r}:
    rec = run.run(name, None, 0.0, True, smoke=True)
    metrics = {{k: v["value"] for k, v in rec["metrics"].items()}}
    out[name] = {{"correct": rec["correct"], "failed": rec["failed"], "metrics": metrics}}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def smoke_records():
    code = CHILD.format(
        perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"), workloads=WORKLOADS
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reaches_every_hooked_layer(smoke_records, workload):
    rec = smoke_records[workload]
    assert rec["correct"] is True
    assert rec["failed"] == 0
    for name in HOOKED + HOOKED_BY_WORKLOAD.get(workload, ()):
        assert rec["metrics"][name] > 0, name


def test_an_offline_solve_rolls_out_only_to_draw_its_dictionaries(smoke_records):
    # the solve returns the batch of its policy, so the one rollout left is
    # the zero-control draw of the dictionaries; a second simulator of the
    # policy would show here
    assert smoke_records["offline_intersection"]["metrics"]["dynamics.rollout.calls"] == 1
