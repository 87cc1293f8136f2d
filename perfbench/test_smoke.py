"""Self-test of the benchmark: tiny instances of every workload.

    python3 -m pytest -q perfbench/test_smoke.py    (or: python3 perfbench/test_smoke.py)

Each workload is generated small, graded once untraced and once traced in
fresh interpreters, and every report must agree with the oracle.  The
results files must parse into the metrics `BENCHMARK.json` declares.  The
tier-1 suite does not collect this file; it takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _scratch(prefix: str) -> Path:
    (BENCH / ".work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=BENCH / ".work"))


def _check_metrics(metrics: dict, declared: list[dict]) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for entry in declared:
        value, unit = metrics[entry["name"]]
        assert unit == entry["unit"], entry["name"]
        assert isinstance(value, (int, float)) and math.isfinite(value), entry["name"]


def check_workload(workload: str) -> None:
    work = _scratch(f"smoke-{workload}-")
    try:
        plan = generate(workload, work, seed=7, src=run.SRC, small=True)
        assert plan.submissions and plan.batches and plan.trace
        plain = run.measure(work, work / "plain.json", "--mode", "grade", "--fixed")
        traced = run.measure(work, work / "traced.json", "--mode", "grade", "--fixed", "--trace")
        for result in (plain, traced):
            for phase in ("timed", "batch"):
                assert result[phase]["mismatches"] == [], result[phase]["mismatches"]
            assert set(result["timed"]["failures"]) <= {"RecursionError"}
            assert result["timed"]["digest"] is not None
        assert plain["timed"]["digest"] == traced["timed"]["digest"]
        assert traced["absent"] == []
        if workload != "deep-shapes":
            assert plain["timed"]["failures"] == {} and plain["batch"]["failures"] == {}
        _check_metrics(run.end_to_end(plain, [plain["setup_s"]]), DECLARED["end_to_end"])
        _check_metrics(run.per_layer(traced, plain), DECLARED["per_layer"])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_grades_batch():
    check_workload("grades-batch")


def test_wide_table():
    check_workload("wide-table")


def test_deep_shapes():
    check_workload("deep-shapes")


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)
    assert DECLARED["paths"] == ["perfbench"]


def test_refuses_to_run_without_sources():
    root = _scratch("smoke-bare-")
    try:
        shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", root)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grades-batch", "--seed", "1", "--seconds", "1"],
            cwd=root, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
