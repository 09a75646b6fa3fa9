"""Command-line interface.

Three subcommands make the library usable without writing Python:

* ``repro info FILE``       — print a netlist's size characteristics
* ``repro generate NAME``   — emit a synthetic Table I stand-in (hMETIS)
* ``repro partition FILE``  — partition a netlist and report the cut

``FILE`` is hMETIS (``.hgr``) or this library's JSON container
(``.json``), auto-detected by extension.

Examples::

    repro generate s9234 --scale 0.1 -o s9234.hgr
    repro info s9234.hgr
    repro partition s9234.hgr --algorithm mlc -R 0.5 --runs 10
    repro partition s9234.hgr --runs 20 --jobs 4 --budget 30
    repro partition s9234.hgr --runs 20 --verify \
        --inject-faults rate=0.1,seed=7 --retries 2 --min-ok-fraction 0.5
    repro partition s9234.hgr -k 4 --algorithm mlf --output parts.txt
    repro partition s9234.hgr --runs 10 --jobs 4 --trace run.trace.jsonl
    repro trace-summary run.trace.jsonl
    repro compare baseline.jsonl current.jsonl --gate
    repro report --ledger .repro/ledger.jsonl --trace run.trace.jsonl
    repro partition s9234.hgr --record run.record.jsonl
    repro replay run.record.jsonl s9234.hgr
    repro diff-run csr.record.jsonl numpy.record.jsonl

Every subcommand accepts ``-v``/``-vv`` (or ``--log-level LEVEL``) to
raise the verbosity of the ``repro.*`` logging hierarchy, which is
quiet by default.  ``--trace FILE`` (on ``partition``/``bench``) writes
a Chrome trace-event stream loadable in Perfetto or chrome://tracing;
``--metrics-out FILE`` writes Prometheus-format metrics.

Every ``partition``/``bench`` run is also recorded in the append-only
run ledger (``.repro/ledger.jsonl``; redirect or disable with the
``REPRO_LEDGER`` environment variable).  ``repro compare`` reduces two
ledgers (or committed ``BENCH_*.json`` reports) with median/sign-test
statistics — ``--gate`` exits nonzero on a *confirmed* regression —
and ``repro report`` renders the ledger (plus optional convergence
analytics from a trace) as markdown or HTML.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .errors import ReproError
from .faults import FaultPlan
from .hypergraph import (Hypergraph, benchmark_names, compute_stats,
                         load_circuit, read_hmetis, read_json,
                         write_hmetis, write_json)
from .obs import configure_logging
from .partition import (BalanceConstraint, cut, read_assignment,
                        summarize, write_assignment)
from .runtime import Portfolio, execute
from .solvers import ALGORITHMS, DEFAULT_PORT, build_algorithm

__all__ = ["main", "build_parser", "version_string"]


def version_string() -> str:
    """``repro <version> (<git sha>)`` — the ``--version``/``/version``
    identity line, reusing the ledger's cached git-SHA probe."""
    from . import __version__
    from .obs import git_sha
    sha = git_sha()
    return f"repro {__version__}" + (f" ({sha})" if sha else "")


def _read_netlist(path: str) -> Hypergraph:
    if path.endswith(".json"):
        return read_json(path)
    return read_hmetis(path)


def _write_metrics(registry, path: str) -> None:
    """Write a registry's Prometheus exposition to ``path``.

    The one ``--metrics-out`` implementation (partition and bench both
    funnel here): parent directories are created, and IO failures
    surface as a clean CLI error instead of a traceback.
    """
    from .obs import write_prometheus
    try:
        write_prometheus(registry, path)
    except OSError as exc:
        raise ReproError(f"could not write metrics to {path}: {exc}")
    print(f"metrics written to {path}", file=sys.stderr)


def _cmd_info(args: argparse.Namespace) -> int:
    hg = _read_netlist(args.file)
    stats = compute_stats(hg)
    print(f"name:          {stats.name or Path(args.file).stem}")
    print(f"modules:       {stats.modules}")
    print(f"nets:          {stats.nets}")
    print(f"pins:          {stats.pins}")
    print(f"mean net size: {stats.mean_net_size:.2f} "
          f"(max {stats.max_net_size})")
    print(f"mean degree:   {stats.mean_degree:.2f} (max {stats.max_degree})")
    print(f"total area:    {stats.total_area:g} (max module "
          f"{stats.max_area:g})")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    hg = load_circuit(args.name, scale=args.scale, seed=args.seed)
    out = args.output or f"{args.name}.hgr"
    if out.endswith(".json"):
        write_json(hg, out)
    else:
        write_hmetis(hg, out)
    print(f"wrote {out}: {hg.num_modules} modules, {hg.num_nets} nets, "
          f"{hg.num_pins} pins (stand-in for {args.name} at scale "
          f"{args.scale:g})")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    hg = _read_netlist(args.file)
    algorithm = build_algorithm(args.algorithm, k=args.k, ratio=args.ratio,
                                threshold=args.threshold,
                                tolerance=args.tolerance,
                                descents=args.descents,
                                vcycles=args.vcycles)
    faults = (FaultPlan.parse(args.inject_faults)
              if args.inject_faults else None)
    # --verify recomputes every returned cut from scratch and checks
    # balance at the run's own tolerance; corrupt results are demoted
    # to 'invalid' records and retried instead of reported.
    verify = args.tolerance if args.verify else False
    portfolio = Portfolio(algorithm=algorithm, hg=hg, runs=args.runs,
                          seed=args.seed, budget_seconds=args.budget,
                          retries=args.retries, keep_results=True,
                          faults=faults, verify=verify, trace=args.trace,
                          record=args.record)
    registry = None
    if args.metrics_out:
        from .obs import collecting_metrics
        with collecting_metrics() as registry:
            outcome = execute(portfolio, jobs=args.jobs)
    else:
        outcome = execute(portfolio, jobs=args.jobs)
    if registry is not None:
        _write_metrics(registry, args.metrics_out)
    if args.trace:
        print(f"trace written to {args.trace} (load in Perfetto or "
              "chrome://tracing, or run 'repro trace-summary')",
              file=sys.stderr)
    if args.record:
        print(f"decision recording written to {args.record} (audit with "
              "'repro replay', compare with 'repro diff-run')",
              file=sys.stderr)
    outcome.require_quorum(args.min_ok_fraction)
    if not outcome.ok_records:
        raise ReproError(
            f"all {outcome.runs} runs failed; first error: "
            f"{outcome.records[0].error}")
    best = outcome.best.result
    cuts = outcome.cuts

    assert best is not None
    partition = best.partition
    constraint = BalanceConstraint.from_tolerance(hg, args.tolerance,
                                                  k=args.k)
    areas = partition.part_areas(hg)
    print(f"algorithm:  {args.algorithm} (k={args.k}, runs={args.runs}, "
          f"jobs={args.jobs})")
    print(f"min cut:    {min(cuts)}")
    if args.runs > 1:
        print(f"avg cut:    {sum(cuts) / len(cuts):.1f}")
        print(f"all cuts:   {cuts}")
    if outcome.failures:
        for record in outcome.failures:
            print(f"run {record.index} {record.status} "
                  f"(seed {record.seed}): {record.error}", file=sys.stderr)
        print(f"failed:     {len(outcome.failures)}/{outcome.runs} runs")
    print(f"part areas: {[round(a, 2) for a in areas]} "
          f"(bounds [{constraint.lower:.1f}, {constraint.upper:.1f}], "
          f"feasible: {constraint.is_feasible(areas)})")
    print(f"wall:       {outcome.wall_seconds:.2f}s")
    print(f"cpu:        {outcome.cpu_seconds:.2f}s")
    if cut(hg, partition) != best.cut:
        raise ReproError(
            f"best solution failed final recomputation (reported "
            f"{best.cut}, recomputed {cut(hg, partition)}); "
            "re-run with --verify to quarantine corrupt results")

    if args.output:
        write_assignment(partition, args.output)
        print(f"assignment written to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    hg = _read_netlist(args.file)
    partition = read_assignment(args.assignment,
                                num_modules=hg.num_modules)
    summary = summarize(hg, partition, tolerance=args.tolerance)
    print(f"k:           {summary['k']}")
    print(f"cut:         {summary['cut']}")
    print(f"soed:        {summary['soed']}")
    print(f"absorption:  {summary['absorption']:.2f} "
          f"(of {hg.total_net_weight})")
    if "ratio_cut" in summary:
        print(f"ratio cut:   {summary['ratio_cut']:.3e}")
    if "scaled_cost" in summary:
        print(f"scaled cost: {summary['scaled_cost']:.3e}")
    areas = summary["part_areas"]
    print(f"part areas:  {[round(a, 2) for a in areas]}")
    print(f"balanced:    {summary['balanced']} "
          f"(r = {args.tolerance})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import (figure4_ratio_tradeoff, table1_characteristics,
                          table2_tiebreak, table3_fm_vs_clip,
                          table4_ml_vs_clip, table5_mlf_ratio,
                          table6_mlc_ratio, table7_comparison, table8_cpu,
                          table9_quadrisection)
    generators = {
        "1": lambda: table1_characteristics(scale=args.scale,
                                            seed=args.seed),
        "2": lambda: table2_tiebreak(scale=args.scale, runs=args.runs,
                                     seed=args.seed, jobs=args.jobs),
        "3": lambda: table3_fm_vs_clip(scale=args.scale, runs=args.runs,
                                       seed=args.seed, jobs=args.jobs),
        "4": lambda: table4_ml_vs_clip(scale=args.scale, runs=args.runs,
                                       seed=args.seed, jobs=args.jobs),
        "5": lambda: table5_mlf_ratio(scale=args.scale, runs=args.runs,
                                      seed=args.seed, jobs=args.jobs),
        "6": lambda: table6_mlc_ratio(scale=args.scale, runs=args.runs,
                                      seed=args.seed, jobs=args.jobs),
        "7": lambda: table7_comparison(scale=args.scale, runs=args.runs,
                                       seed=args.seed, jobs=args.jobs),
        "8": lambda: table8_cpu(scale=args.scale, runs=args.runs,
                                seed=args.seed, jobs=args.jobs),
        "9": lambda: table9_quadrisection(scale=args.scale,
                                          runs=max(1, args.runs // 2),
                                          seed=args.seed, jobs=args.jobs),
        "fig4": lambda: figure4_ratio_tradeoff(scale=args.scale,
                                               runs=args.runs,
                                               seed=args.seed,
                                               jobs=args.jobs),
    }
    from contextlib import ExitStack
    with ExitStack() as stack:
        registry = None
        if args.trace:
            from .obs import tracing
            stack.enter_context(tracing(args.trace))
        if args.metrics_out:
            from .obs import collecting_metrics
            registry = stack.enter_context(collecting_metrics())
        rendered = generators[args.table]().render()
    print(rendered)
    if registry is not None:
        _write_metrics(registry, args.metrics_out)
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from .obs import summarize_trace
    # A service trace (repro serve --trace) prints one span tree per
    # execution before the flat phase table.
    print(summarize_trace(args.trace).render())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .obs import compare_sample_sets, load_samples
    from .obs.compare import RUNTIME_METRICS
    baseline = load_samples(args.baseline)
    current = load_samples(args.current)
    comparisons = compare_sample_sets(
        baseline, current, alpha=args.alpha,
        min_effect_pct=args.min_effect,
        time_min_effect_pct=args.time_min_effect)
    if not comparisons:
        print("no overlapping (key, metric) pairs between "
              f"{args.baseline} and {args.current}; nothing to compare")
        return 2 if args.gate else 0
    for comparison in comparisons:
        print(comparison.describe())
    gated = [c for c in comparisons
             if c.regressed and c.confirmed
             and (not args.no_time_gate
                  or c.metric not in RUNTIME_METRICS)]
    improved = sum(c.confirmed and not c.regressed for c in comparisons)
    print(f"{len(comparisons)} comparison(s): "
          f"{len([c for c in comparisons if c.regressed])} regressed, "
          f"{improved} improved, "
          f"{sum(not c.confirmed for c in comparisons)} indistinguishable")
    if args.gate and gated:
        print(f"gate: FAILED — {len(gated)} confirmed regression(s)",
              file=sys.stderr)
        return 1
    if args.gate:
        print("gate: ok (no confirmed regressions)")
    return 0


def _require_recording(path: str) -> None:
    # The tolerant JSONL reader maps a missing file to an empty
    # stream; at the CLI that would silently "verify" nothing, so
    # require the file up front (diff(1)-style exit 2 via ReproError).
    if not Path(path).is_file():
        raise ReproError(f"recording not found: {path}")


def _cmd_replay(args: argparse.Namespace) -> int:
    from .obs import replay_recording
    _require_recording(args.recording)
    hg = _read_netlist(args.netlist)
    report = replay_recording(args.recording, hg,
                              verify_states=args.verify_states)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_diff_run(args: argparse.Namespace) -> int:
    from .obs import diff_recordings
    for path in (args.a, args.b):
        _require_recording(path)
    report = diff_recordings(args.a, args.b)
    print(report.render())
    # diff(1) semantics: 0 identical, 1 diverged, 2 (ReproError) bad input.
    return 0 if report.identical else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import build_report
    text = build_report(ledger=args.ledger, trace=args.trace,
                        fmt=args.format, last=args.last,
                        record=args.record)
    if args.output:
        try:
            Path(args.output).parent.mkdir(parents=True, exist_ok=True)
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ReproError(
                f"could not write report to {args.output}: {exc}")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import PartitionServer, ServiceEngine
    faults = None
    if args.inject_faults:
        from .faults import FaultPlan
        faults = FaultPlan.parse(args.inject_faults)
    engine = ServiceEngine(jobs=args.jobs,
                           result_entries=args.cache_size,
                           spool_dir=args.spool_dir,
                           default_deadline_ms=args.deadline_ms,
                           max_queued=args.max_queued,
                           breaker_failures=args.breaker_failures,
                           breaker_cooldown=args.breaker_cooldown,
                           retries=args.retries,
                           faults=faults)
    server = PartitionServer(engine, host=args.host, port=args.port,
                             drain_seconds=args.drain_seconds,
                             max_connections=args.max_connections,
                             read_timeout=args.read_timeout,
                             job_ttl=args.job_ttl,
                             max_jobs=args.max_jobs,
                             trace_path=args.trace,
                             access_log_path=args.access_log,
                             profile_dir=args.profile_dir,
                             profile_interval=args.profile_interval)
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        # Signal handlers already drained; a second Ctrl-C lands here.
        pass
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.console import run_top
    from .service import ServiceClient
    host, port = _parse_server(args.server)
    color = sys.stdout.isatty() and not args.no_color
    with ServiceClient(host, port, timeout=args.timeout,
                       retries=0) as client:
        return run_top(client, interval=args.interval, once=args.once,
                       color=color)


def _parse_server(spec: str) -> tuple:
    host, _, port = spec.rpartition(":")
    if not host:
        host, port = spec, ""
    try:
        return host or "127.0.0.1", int(port) if port else DEFAULT_PORT
    except ValueError:
        raise ReproError(f"bad --server {spec!r} (expected HOST[:PORT])")


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceClient, inline_netlist
    host, port = _parse_server(args.server)
    with ServiceClient(host, port, timeout=args.timeout,
                       retries=args.retries) as client:
        if args.action == "health":
            print(_json.dumps(client.healthz(), indent=2))
        elif args.action == "version":
            print(_json.dumps(client.version(), indent=2))
        elif args.action == "metrics":
            print(client.metrics(), end="")
        elif args.action == "status":
            print(_json.dumps(client.status(), indent=2))
        elif args.action == "profile":
            print(client.profile(), end="")
        else:  # partition
            if not args.file:
                raise ReproError("client partition needs a netlist FILE")
            request = {
                "netlist": {"inline": inline_netlist(_read_netlist(args.file))},
                "algorithm": args.algorithm,
                "k": args.k, "runs": args.runs, "seed": args.seed,
                "ratio": args.ratio, "threshold": args.threshold,
                "tolerance": args.tolerance,
            }
            if args.deadline_ms is not None:
                request["deadline_ms"] = args.deadline_ms
            print(_json.dumps(client.partition(
                request, trace_id=args.trace_id), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multilevel circuit partitioning "
                    "(Alpert/Huang/Kahng 1997 reproduction)")
    parser.add_argument("--version", action="version",
                        version=version_string())
    # Logging flags are shared by every subcommand (so they can be
    # written after the subcommand name, where users expect them).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="raise repro.* log verbosity (-v info, "
                             "-vv debug; default: warnings only)")
    common.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="explicit log level name (DEBUG, INFO, ...); "
                             "overrides -v")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", parents=[common],
                            help="print netlist characteristics")
    p_info.add_argument("file")
    p_info.set_defaults(fn=_cmd_info)

    p_gen = sub.add_parser("generate", parents=[common],
                           help="generate a synthetic suite circuit")
    p_gen.add_argument("name", choices=benchmark_names())
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None,
                       help="output path (.hgr or .json)")
    p_gen.set_defaults(fn=_cmd_generate)

    p_part = sub.add_parser("partition", parents=[common],
                            help="partition a netlist")
    p_part.add_argument("file")
    p_part.add_argument("--algorithm", choices=ALGORITHMS, default="mlc")
    p_part.add_argument("-k", type=int, default=2,
                        help="number of parts (k>2 needs mlc/mlf)")
    p_part.add_argument("-R", "--ratio", type=float, default=0.5,
                        help="matching ratio for ML (paper: 0.5)")
    p_part.add_argument("-T", "--threshold", type=int, default=35,
                        help="coarsening threshold for ML (paper: 35)")
    p_part.add_argument("--tolerance", type=float, default=0.1,
                        help="balance tolerance r (paper: 0.1)")
    p_part.add_argument("--runs", type=int, default=1)
    p_part.add_argument("--descents", type=int, default=20,
                        help="LSMC descent count")
    p_part.add_argument("--vcycles", type=int, default=0,
                        help="extra restricted V-cycles after ML (k=2, "
                             "mlc/mlf only)")
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes for the runs (same cuts "
                             "at any worker count)")
    p_part.add_argument("--budget", type=float, default=None,
                        help="per-run wall-clock budget in seconds")
    p_part.add_argument("--retries", type=int, default=0,
                        help="re-execute a crashed run this many times")
    p_part.add_argument("--verify", action="store_true",
                        help="recompute every returned cut (and balance "
                             "at --tolerance) from scratch; corrupt "
                             "results are retried, never reported")
    p_part.add_argument("--min-ok-fraction", type=float, default=None,
                        metavar="FRAC",
                        help="survival quorum: fail unless at least this "
                             "fraction of runs succeeds (default: any)")
    p_part.add_argument("--inject-faults", metavar="SPEC", default=None,
                        help="arm a deterministic fault plan, e.g. "
                             "'rate=0.1,seed=7,kinds=raise+corrupt_cut' "
                             "(chaos-testing the runtime; see "
                             "repro.faults.FaultPlan.parse)")
    p_part.add_argument("--output", default=None,
                        help="write the per-module part assignment here")
    p_part.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event stream of the "
                             "whole run (all workers) to FILE")
    p_part.add_argument("--record", metavar="FILE", default=None,
                        help="write the run's decision recording (the "
                             "pairs of every matching and the moves of "
                             "every FM pass, all workers) to FILE as "
                             "JSONL; replay with 'repro replay', "
                             "compare runs with 'repro diff-run'")
    p_part.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write Prometheus-format metrics to FILE "
                             "after the run")
    p_part.set_defaults(fn=_cmd_partition)

    p_eval = sub.add_parser(
        "evaluate", parents=[common],
        help="score an existing partition assignment")
    p_eval.add_argument("file", help="the netlist (.hgr/.json)")
    p_eval.add_argument("assignment",
                        help="one part id per line, one line per module")
    p_eval.add_argument("--tolerance", type=float, default=0.1)
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_bench = sub.add_parser(
        "bench", parents=[common],
        help="regenerate one of the paper's tables/figures")
    p_bench.add_argument("table",
                         choices=["1", "2", "3", "4", "5", "6", "7", "8",
                                  "9", "fig4"])
    p_bench.add_argument("--scale", type=float, default=0.1)
    p_bench.add_argument("--runs", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes per table cell")
    p_bench.add_argument("--trace", metavar="FILE", default=None,
                         help="write a Chrome trace-event stream of the "
                              "whole sweep to FILE")
    p_bench.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write Prometheus-format metrics to FILE")
    p_bench.set_defaults(fn=_cmd_bench)

    p_replay = sub.add_parser(
        "replay", parents=[common],
        help="re-execute a decision recording against its netlist, "
             "auditing every recorded gain/cut/balance; exits 1 on any "
             "mismatch")
    p_replay.add_argument("recording",
                          help="recording written by --record")
    p_replay.add_argument("netlist", help="the netlist (.hgr/.json) the "
                                          "recording was made on")
    p_replay.add_argument("--verify-states", action="store_true",
                          help="additionally run each refinement "
                               "block's full-state invariant check "
                               "(slower, strictest audit)")
    p_replay.set_defaults(fn=_cmd_replay)

    p_diff = sub.add_parser(
        "diff-run", parents=[common],
        help="align two decision recordings and report the first "
             "diverging decision (diff semantics: exit 1 when they "
             "diverge)")
    p_diff.add_argument("a", help="recording A (.jsonl)")
    p_diff.add_argument("b", help="recording B (.jsonl)")
    p_diff.set_defaults(fn=_cmd_diff_run)

    p_tsum = sub.add_parser(
        "trace-summary", parents=[common],
        help="print per-phase time and cut breakdown of a trace file")
    p_tsum.add_argument("trace", help="trace file written by --trace")
    p_tsum.set_defaults(fn=_cmd_trace_summary)

    p_cmp = sub.add_parser(
        "compare", parents=[common],
        help="statistically compare two run ledgers (or BENCH_*.json "
             "reports); --gate exits nonzero on confirmed regressions")
    p_cmp.add_argument("baseline",
                       help="baseline ledger (.jsonl) or BENCH_*.json")
    p_cmp.add_argument("current",
                       help="current ledger (.jsonl) or BENCH_*.json")
    p_cmp.add_argument("--gate", action="store_true",
                       help="exit 1 on any confirmed regression (the CI "
                            "perf/quality gate)")
    p_cmp.add_argument("--alpha", type=float, default=0.05,
                       help="sign-test significance level (default 0.05)")
    p_cmp.add_argument("--min-effect", type=float, default=1.0,
                       metavar="PCT",
                       help="minimum median shift (%%) for a quality "
                            "verdict to count (default 1.0)")
    p_cmp.add_argument("--time-min-effect", type=float, default=25.0,
                       metavar="PCT",
                       help="minimum median shift (%%) for a runtime "
                            "verdict to count (default 25.0 — CI "
                            "machines breathe)")
    p_cmp.add_argument("--no-time-gate", action="store_true",
                       help="report runtime regressions but never fail "
                            "the gate on them (quality only)")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_rep = sub.add_parser(
        "report", parents=[common],
        help="render the run ledger (and optional trace convergence "
             "analytics) as markdown or HTML")
    p_rep.add_argument("--ledger", default=None, metavar="FILE",
                       help="ledger to read (default: the active one, "
                            "per REPRO_LEDGER)")
    p_rep.add_argument("--trace", default=None, metavar="FILE",
                       help="also include convergence tables from this "
                            "trace file")
    p_rep.add_argument("--record", default=None, metavar="FILE",
                       help="also include decision analytics (gain "
                            "histogram, cut-vs-move curve) from this "
                            "recording file")
    p_rep.add_argument("--format", choices=["markdown", "html"],
                       default="markdown")
    p_rep.add_argument("--last", type=int, default=50,
                       help="read at most this many trailing ledger "
                            "entries (default 50)")
    p_rep.add_argument("-o", "--output", default=None,
                       help="write the report here instead of stdout")
    p_rep.set_defaults(fn=_cmd_report)

    p_srv = sub.add_parser(
        "serve", parents=[common],
        help="run the partitioning service daemon (HTTP/JSON; "
             "fingerprint-keyed result cache, request coalescing)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"bind port (default {DEFAULT_PORT}; 0 picks "
                            "a free port, printed on the readiness line)")
    p_srv.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes per executed portfolio")
    p_srv.add_argument("--cache-size", type=int, default=256,
                       metavar="N",
                       help="result-cache entries before LRU eviction "
                            "(default 256)")
    p_srv.add_argument("--spool-dir", default=None, metavar="DIR",
                       help="directory for served trace files (default: "
                            "a fresh temp dir)")
    p_srv.add_argument("--drain-seconds", type=float, default=30.0,
                       metavar="SEC",
                       help="graceful-shutdown budget: wait this long "
                            "for the in-flight portfolio on "
                            "SIGTERM/SIGINT (default 30)")
    p_srv.add_argument("--deadline-ms", type=int, default=300_000,
                       metavar="MS",
                       help="default per-request deadline when the "
                            "request carries no deadline_ms (default "
                            "300000; bounds queue wait + execution)")
    p_srv.add_argument("--max-queued", type=int, default=32, metavar="N",
                       help="execution-lane high-watermark: beyond this "
                            "many queued requests, new work is shed "
                            "with 429 + Retry-After (default 32)")
    p_srv.add_argument("--max-connections", type=int, default=128,
                       metavar="N",
                       help="open-connection cap; excess connections "
                            "get 503 and are closed (default 128)")
    p_srv.add_argument("--read-timeout", type=float, default=30.0,
                       metavar="SEC",
                       help="slow-client defense: budget for reading a "
                            "request head/body once started (default 30)")
    p_srv.add_argument("--job-ttl", type=float, default=3600.0,
                       metavar="SEC",
                       help="finished sweep jobs are evicted after this "
                            "long (default 3600)")
    p_srv.add_argument("--max-jobs", type=int, default=64, metavar="N",
                       help="live sweep-job cap; beyond it POST /sweep "
                            "is shed with 429 (default 64)")
    p_srv.add_argument("--breaker-failures", type=int, default=3,
                       metavar="N",
                       help="consecutive unhealthy executions on one "
                            "netlist before its circuit breaker opens "
                            "and requests degrade (default 3)")
    p_srv.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SEC",
                       help="seconds an open breaker serves degraded "
                            "answers before probing recovery "
                            "(default 30)")
    p_srv.add_argument("--retries", type=int, default=0, metavar="N",
                       help="per-start retry budget for served "
                            "portfolios (failed/invalid starts only, "
                            "as in 'repro partition')")
    p_srv.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="arm a deterministic FaultPlan on every "
                            "served portfolio (chaos testing; same "
                            "SPEC as 'repro partition --inject-faults')")
    p_srv.add_argument("--trace", default=None, metavar="FILE",
                       help="write a daemon-lifetime trace of every "
                            "request and execution to FILE (Chrome "
                            "trace-event JSONL; spans carry "
                            "request/trace IDs, so 'repro "
                            "trace-summary' regroups them per request)")
    p_srv.add_argument("--access-log", default=None, metavar="FILE",
                       help="append one JSONL record per request "
                            "(request_id, route, status, latency_ms, "
                            "cache/coalesce/degraded flags)")
    p_srv.add_argument("--profile-dir", default=None, metavar="DIR",
                       help="enable continuous profiling: sampled wall "
                            "stacks served at GET /profile and written "
                            "to DIR/profile.collapsed on shutdown, "
                            "plus per-portfolio tracemalloc peaks in "
                            "the ledger")
    p_srv.add_argument("--profile-interval", type=float, default=0.01,
                       metavar="SEC",
                       help="wall-profiler sampling interval "
                            "(default 0.01)")
    p_srv.set_defaults(fn=_cmd_serve)

    p_top = sub.add_parser(
        "top", parents=[common],
        help="live ops console for a running daemon (polls /status)")
    p_top.add_argument("--server", default="127.0.0.1",
                       metavar="HOST[:PORT]",
                       help=f"daemon address (default "
                            f"127.0.0.1:{DEFAULT_PORT})")
    p_top.add_argument("--interval", type=float, default=2.0,
                       metavar="SEC",
                       help="refresh interval (default 2)")
    p_top.add_argument("--once", action="store_true",
                       help="print one frame and exit (scriptable)")
    p_top.add_argument("--timeout", type=float, default=10.0)
    p_top.add_argument("--no-color", action="store_true",
                       help="plain text even on a TTY")
    p_top.set_defaults(fn=_cmd_top)

    p_cli = sub.add_parser(
        "client", parents=[common],
        help="talk to a running 'repro serve' daemon")
    p_cli.add_argument("action",
                       choices=["health", "version", "metrics",
                                "status", "profile", "partition"])
    p_cli.add_argument("file", nargs="?", default=None,
                       help="netlist (.hgr/.json) for 'partition' "
                            "(sent inline)")
    p_cli.add_argument("--server", default="127.0.0.1",
                       metavar="HOST[:PORT]",
                       help=f"daemon address (default "
                            f"127.0.0.1:{DEFAULT_PORT})")
    p_cli.add_argument("--timeout", type=float, default=300.0)
    p_cli.add_argument("--retries", type=int, default=2,
                       help="client-side retry budget for connection "
                            "failures and 429 load sheds (default 2)")
    p_cli.add_argument("--deadline-ms", type=int, default=None,
                       metavar="MS",
                       help="per-request deadline forwarded to the "
                            "daemon (default: the server's)")
    p_cli.add_argument("--trace-id", default=None, metavar="ID",
                       help="correlation ID sent as X-Trace-Id; the "
                            "daemon stamps it into every span the "
                            "request produces and its ledger entry")
    p_cli.add_argument("--algorithm", choices=ALGORITHMS, default="mlc")
    p_cli.add_argument("-k", type=int, default=2)
    p_cli.add_argument("--runs", type=int, default=1)
    p_cli.add_argument("--seed", type=int, default=0)
    p_cli.add_argument("-R", "--ratio", type=float, default=0.5)
    p_cli.add_argument("-T", "--threshold", type=int, default=35)
    p_cli.add_argument("--tolerance", type=float, default=0.1)
    p_cli.set_defaults(fn=_cmd_client)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbosity=getattr(args, "verbose", 0),
                      level=getattr(args, "log_level", None))
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream reader (e.g. ``repro trace-summary ... | head``)
        # closed the pipe; suppress the traceback and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
