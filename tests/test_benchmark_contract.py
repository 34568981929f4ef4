"""What `benchmark/` needs of the program, pinned.

The benchmark's tracer wraps public voxmix functions by name and reads
some of their parameters by name. A wrapped function the program no
longer has is left out of the per-layer metrics, and the run still exits
0 as correct, so a deletion in the program would silently drop a metric
that BENCHMARK.json lists. These tests fail instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: installing the tracer rebinds voxmix functions
# process-wide, which must not leak into the rest of the test session.
PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {bench!r})
import layertrace, run
vx = run.import_voxmix()
layertrace.PhaseClock().install(vx["cli"])
tracer = layertrace.Tracer()
tracer.install(vx)
specs = {{}}
for workload in run.WORKLOADS:
    spec = run.make_spec(vx, workload, 0, Path(tempfile.gettempdir()) / "unused")
    specs[workload] = [c.cell_id for c in spec.strategies]
print(json.dumps({{
    "absent": tracer.absent,
    "metrics": sorted(tracer.metrics()),
    "all": list(vx["numerics"].__all__),
    "ops": list(layertrace.OPS),
    "specs": specs,
}}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    code = PROBE.format(bench=str(ROOT / "benchmark"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracer_finds_every_function_and_parameter_it_wraps(probe):
    assert probe["absent"] == []
    # every listed per-layer metric except the phase clock's and the overhead
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    from_tracer = {m["name"] for m in listed
                   if not m["name"].startswith("cli.") and m["name"] != "trace.overhead_pct"}
    assert set(probe["metrics"]) == from_tracer


def test_every_traced_op_is_public_in_numerics(probe):
    missing = [op for op in probe["ops"] if op not in probe["all"]]
    assert missing == []


def test_benchmark_builds_a_spec_for_every_workload(probe):
    specs = probe["specs"]
    assert set(specs) == {"finetune-grid", "pretrain", "decode-eval"}
    assert specs["pretrain"] == []
    assert len(specs["finetune-grid"]) == len(specs["decode-eval"]) == 10
