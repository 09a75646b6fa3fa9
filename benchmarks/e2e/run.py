"""End-to-end benchmark of the partitioner, its runtime and its service.

    python3 benchmarks/e2e/run.py --workload ml-large --seed 1 --trace 0
    python3 benchmarks/e2e/run.py --seed 1             # every workload
    python3 benchmarks/e2e/run.py --smoke --trace 1    # seconds-long check
    python3 benchmarks/e2e/run.py --sets 2 --seed 1    # spread vs bounds

Workloads and metrics are declared in ``BENCHMARK.json`` at the repo
root; README.md next to this file explains them.  Each workload runs in
a fresh process (``workload.py``) with its own scratch directory under
``.bench_tmp/``, which is removed afterwards.  With one ``--workload``
the last stdout line is that workload's result object.  ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``; a caller that runs
the benchmark from that file's ``command`` passes it explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A workload process that outlives this is killed with its daemons.
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1.0
#: Seeds each set runs with ``--sets``.
SET_SEEDS = 10


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a workload's process group and wait
    until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> Tuple[int, str]:
    """Run one workload in a fresh process; return its exit code and
    standard output."""
    scratch = ROOT / ".bench_tmp" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "workload.py"), workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scratch", str(scratch)]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        _stop_group(proc.pid)
        proc.communicate()
        return 124, ""
    finally:
        _stop_group(proc.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out


def parse_output(out: str) -> Tuple[Optional[dict], int]:
    """The result object and the oracle's check count of one run."""
    lines = out.strip().splitlines()
    checks = 0
    for line in lines:
        if line.startswith("oracle: "):
            checks = int(line.split()[1])
    try:
        return json.loads(lines[-1]), checks
    except (IndexError, json.JSONDecodeError):
        return None, checks


def sets_report(spec: dict, workloads: List[str], first_seed: int,
                sets: int, seconds: float, smoke: bool) -> int:
    """Run ``sets`` interleaved sets of untraced runs over the same
    ``SET_SEEDS`` seeds; print each end-to-end metric's spread within a
    set and the drift between set medians, against its bound."""
    metrics = spec["end_to_end"]
    seeds = list(range(first_seed, first_seed + SET_SEEDS))
    values: Dict[str, List[List[dict]]] = {}
    for workload in workloads:
        values[workload] = [[] for _ in range(sets)]
        for seed in seeds:
            for k in range(sets):
                code, out = run_workload(workload, seed, seconds, 0, smoke)
                result, _ = parse_output(out)
                if code != 0 or result is None:
                    print(f"{workload} seed {seed}: exited {code}",
                          file=sys.stderr)
                    return code or 1
                values[workload][k].append(result["metrics"])
                print(f"# {workload} seed {seed} set {k}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr)
    report: Dict[str, dict] = {}
    ok = True
    for workload in workloads:
        report[workload] = {}
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            per_set = [[run[name]["value"] for run in runs]
                       for runs in values[workload]]
            medians = [median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            drift = max(abs(m - medians[0]) / medians[0] for m in medians)
            flags = []
            if max(spreads) > bound:
                flags.append("SPREAD OVER BOUND")
            elif max(spreads) > bound / 3:
                flags.append("spread over bound/3")
            if drift > bound:
                flags.append("DRIFT OVER BOUND")
            if name.startswith("cut_") and any(v != per_set[0]
                                               for v in per_set):
                flags.append("CUTS DIFFER BETWEEN SETS")
            ok &= not any(flag.isupper() for flag in flags)
            print(f"{workload:17s} {name:15s} medians "
                  + " ".join(f"{m:12.6g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.4f}" for s in spreads)
                  + f"  drift {drift:.4f}  bound {bound}  "
                  + "; ".join(flags))
            report[workload][name] = {"unit": metric["unit"],
                                      "median": medians, "spread": spreads,
                                      "drift": drift, "bound": bound}
    print(json.dumps({"sets": sets, "seeds": seeds, "seconds": seconds,
                      "workloads": report}))
    return 0 if ok else 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)")
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per run (default "
                             "%(default)s; --smoke measures "
                             f"{SMOKE_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, not speed")
    parser.add_argument("--sets", type=int, default=None,
                        help=f"run this many interleaved sets of untraced "
                             f"runs over {SET_SEEDS} seeds from --seed and "
                             f"report spreads against bounds")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src'}; the benchmark "
              "runs from a checkout of the repository", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    workloads = [args.workload] if args.workload else names
    if args.sets:
        return sets_report(spec, workloads, args.seed, args.sets, seconds,
                           args.smoke)
    if args.workload:
        code, out = run_workload(args.workload, args.seed, seconds,
                                 args.trace, args.smoke)
        sys.stdout.write(out)
        return code
    combined: Dict[str, dict] = {}
    failed = False
    for workload in workloads:
        code, out = run_workload(workload, args.seed, seconds, args.trace,
                                 args.smoke)
        print(f"== {workload}")
        sys.stdout.write(out)
        result, checks = parse_output(out) if code == 0 else (None, 0)
        failed |= result is None
        combined[workload] = {"result": result, "oracle_checks": checks}
    print(json.dumps({"workloads": combined}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
