"""Chaos sweep: the benchmark suite under a 10% injected fault rate.

Runs the paper's multi-start protocol over a slice of the Table I mini
suite (through ``golem3``, the largest of the quick-bench circuits)
twice: once clean, once with a deterministic
:class:`~repro.faults.FaultPlan` injecting crashes, worker exits, and
silent result corruption into ~10% of the starts — with verification,
retries, a survival quorum, and a streaming checkpoint all armed, i.e.
the full robustness stack from DESIGN.md section 9.

What to expect: because rate-based faults stop firing after the first
attempt (``FaultPlan.attempts=1``) and every injected kind here is
retryable, each faulted start recovers on retry with its original seed
— so the chaos sweep must finish with *byte-identical cut statistics*
to the clean sweep.  That is the assertion: injected faults cost wall
clock, never results.  ``BENCH_chaos.json`` (written at the repo root,
in the ``meta``/``results``/``summary`` schema every ``BENCH_*.json``
shares) records the configuration, one row of cuts per circuit, and
how many faults were scheduled and survived.

Run directly (``python benchmarks/bench_chaos.py``) or via pytest
(marker ``chaos``).  ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_RUNS`` /
``REPRO_BENCH_SEED`` / ``REPRO_BENCH_JOBS`` resize it, and
``REPRO_BENCH_FAULT_RATE`` overrides the 10% rate.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.faults import (FAULT_CORRUPT_ASSIGNMENT, FAULT_CORRUPT_CUT,
                          FAULT_EXIT, FAULT_RAISE, FaultPlan)
from repro.fm import fm_bipartition
from repro.harness import Algorithm, run_matrix
from repro.hypergraph import load_suite

RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "5"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
FAULT_RATE = float(os.environ.get("REPRO_BENCH_FAULT_RATE", "0.10"))

#: Small / medium / large thirds of the mini suite, ending at golem3.
CIRCUIT_NAMES = ["balu", "struct", "golem3"]

#: Every kind here is retryable (hangs are excluded: a benchmark should
#: not spend its budget sleeping), so retried starts recover fully.
PLAN = FaultPlan(seed=SEED + 1, rate=FAULT_RATE,
                 kinds=(FAULT_RAISE, FAULT_EXIT, FAULT_CORRUPT_CUT,
                        FAULT_CORRUPT_ASSIGNMENT))


def _algorithm() -> Algorithm:
    return Algorithm("FM", lambda hg, s: fm_bipartition(hg, seed=s))


@pytest.mark.chaos
def test_chaos_sweep():
    circuits = load_suite(CIRCUIT_NAMES, scale=SCALE, seed=SEED)
    RESULTS_DIR.mkdir(exist_ok=True)
    checkpoint = RESULTS_DIR / "BENCH_chaos.ckpt.jsonl"
    if checkpoint.exists():
        checkpoint.unlink()  # a fresh benchmark, not a resume

    t0 = time.perf_counter()
    clean = run_matrix([_algorithm()], circuits, runs=RUNS, seed=SEED,
                       jobs=JOBS)
    clean_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    chaos = run_matrix([_algorithm()], circuits, runs=RUNS, seed=SEED,
                       jobs=JOBS, faults=PLAN, verify=True, retries=2,
                       min_ok_fraction=0.5, checkpoint=checkpoint)
    chaos_wall = time.perf_counter() - t0

    scheduled = sum(1 for hg in circuits for i in range(RUNS)
                    if PLAN.decide(i, 1) is not None)
    assert scheduled >= 1, "vacuous chaos run: the plan never fired"
    results = []
    for hg in circuits:
        clean_cell = clean[hg.name]["FM"]
        chaos_cell = chaos[hg.name]["FM"]
        # The headline contract: every faulted start recovered on retry
        # with its original seed, so the surviving statistics are the
        # clean sweep's statistics, exactly.
        assert chaos_cell.cuts == clean_cell.cuts, hg.name
        assert chaos_cell.failures == 0, hg.name
        results.append({
            "circuit": hg.name,
            "cuts": chaos_cell.cuts,
            "min_cut": chaos_cell.min_cut,
            "avg_cut": round(chaos_cell.avg_cut, 2),
            "failures": chaos_cell.failures,
        })
    report = {
        "meta": {
            "scale": SCALE, "runs": RUNS, "seed": SEED, "jobs": JOBS,
            "fault_rate": FAULT_RATE,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "contract": ("every injected fault is retried with its "
                         "start's seed, so each circuit's chaos cuts equal "
                         "its clean cuts and no start fails (asserted)"),
        },
        "results": results,
        "summary": {
            "scheduled_faults": scheduled,
            "starts": RUNS * len(circuits),
            "failures": sum(r["failures"] for r in results),
            "clean_wall_s": round(clean_wall, 3),
            "chaos_wall_s": round(chaos_wall, 3),
        },
    }

    # The checkpoint streamed every finished start of the chaos sweep.
    lines = checkpoint.read_text().splitlines()
    assert len(lines) == 1 + RUNS * len(circuits)

    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nchaos sweep: {scheduled} faults over "
          f"{RUNS * len(circuits)} starts, statistics identical to the "
          f"clean sweep ({chaos_wall:.2f}s vs {clean_wall:.2f}s clean); "
          f"wrote {OUTPUT}")


if __name__ == "__main__":
    test_chaos_sweep()
