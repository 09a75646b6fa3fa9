"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload at ``--smoke`` size, untraced and traced, and
checks that each run emits every metric ``BENCHMARK.json`` names, with
its unit, and that the answer oracle ran.  The inputs are tiny: this
checks the harness, not the speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_workload_emits_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(proc.stdout.strip().splitlines()[-1])["workloads"]
    assert sorted(runs) == sorted(w["name"] for w in SPEC["workloads"])
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, run in runs.items():
        result = run["result"]
        assert run["oracle_checks"] > 0, workload
        assert result["correct"] is True, workload
        assert result["attempted"] >= 1 and result["failed"] == 0, workload
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == units, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (workload, name)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ml-large",
         "--seed", "1", "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
