"""Smoke test of the benchmark: one short pass of every workload, untraced and traced.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Each run must end with a result line that holds exactly the metrics
``BENCHMARK.json`` declares for its mode, each with its unit, and must find
its outputs correct.  A directory holding only the benchmark must make the
command fail without printing a result.  It takes about a minute, so it is
kept out of the tier-1 test run (the file name does not match ``test_*.py``).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        assert f"  {m['name']} " in proc.stdout  # printed by name above the result line
    assert "fail_frac" in proc.stdout


def test_every_workload_reports_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            _check_result(workload, trace)


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # the parent goes only when empty
            os.rmdir(os.path.dirname(bare))


if __name__ == "__main__":
    test_fails_without_the_program()
    test_every_workload_reports_every_metric()
    print("perfbench smoke test passed")
