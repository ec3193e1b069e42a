"""The benchmark's output keeps the shape BENCHMARK.json promises.

Runs every workload on a tiny corpus and checks keys, metric names and
units, never timings.
"""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, docs=30):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--docs", str(docs)]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_result_schema(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        value = result["metrics"][m["name"]]
        assert set(value) == {"value", "unit"} and value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    record = json.loads(record_line)
    assert record["workload"] == workload and record["seed"] == 3 and record["docs"] == 30
    assert {"nproc", "cpu_model", "python", "commit"} <= set(record["environment"])
    assert set(record["df_quantiles"]) == {"p50", "p90", "p99", "max"}
    assert record["failures"] == []


def test_spec_matches_bench_paths():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert {w["name"] for w in SPEC["workloads"]} == {"dense-mine", "zipf-pipeline", "zipf-score"}


def test_without_toolkit_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOAD_NAMES[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
