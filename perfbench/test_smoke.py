"""Smoke test of the benchmark: every workload at its smallest size, both modes.

Checks the result schema, the metric names and units against
``BENCHMARK.json`` and that every op was checked; timings are not
checked.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])

    record = json.loads(
        (HERE / "out" / f"{workload}-seed0-trace{trace}.json").read_text(encoding="utf-8"))
    assert record["attempted"] == result["attempted"]
    assert record["failed"] == result["failed"]
    assert 0 <= record["tol_missed"] <= record["attempted"]
    assert record["checks_run"] >= record["attempted"]  # every op was checked
    assert record["environment"]["input_sha256"]
    assert record["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_library():
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
