"""Smoke test of the benchmark itself: one short run per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Runs from the repository root; takes about two minutes on 2 cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = BENCH / "_work"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = _run(ROOT, "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert line["failed"] == 0 and line["correct"] is True
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_wrong_expected_value_is_a_failed_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import worker
    import workloads

    monkeypatch.setattr(workloads, "REPORT_TOTALS",
                        "Totals: 27 pass, 1 fail, 0 not run.")
    work_dir = WORK / "smoke-wrong-value"
    try:
        result = worker.run_workload("pipeline", 0, 0.0, False, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # one failed check per pass, the untimed warm-up pass included
    assert result["failed"] == len(result["passes"]) + 1
    assert result["attempted"] > result["failed"]
    assert all(failure.startswith("check report totals")
               for failure in result["failures"])


def test_refuses_to_run_without_the_package():
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = _run(bare, "--workload", "pipeline", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
