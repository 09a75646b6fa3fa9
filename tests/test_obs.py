"""Tests for the observability layer (tracing, metrics, logging).

The contracts pinned here:

* span nesting in a traced ML run matches the hierarchy depth
  (per-level coarsen/refine spans, one per level, correctly contained);
* per-pass FM telemetry agrees with the decision recorder's ``pass``
  events (both are pure functions of the move sequence);
* the multiprocess trace merge is deterministic for a fixed seed and
  carries worker-pid-tagged spans;
* tracing/metrics never change results (same cuts with them on/off);
* the Prometheus rendering and the ``repro.*`` logging hierarchy work.
"""

import json
import logging
import threading

import pytest

from repro.core import ml_bipartition, ml_kway, ml_vcycle
from repro.fm import fm_bipartition
from repro.harness import Algorithm, run_cell
from repro.hypergraph import hierarchical_circuit
from repro.obs import (BufferSink, MetricsRegistry,
                       collecting_metrics, configure_logging, get_logger,
                       metrics, read_trace, set_recorder, set_tracer,
                       summarize_trace, tracer, tracing)
from repro.runtime import Portfolio, execute

from .loops import each_loop


def _ml() -> Algorithm:
    return Algorithm("MLC", lambda hg, s: ml_bipartition(hg, seed=s))


def _always_failing() -> Algorithm:
    def run(hg, s):
        raise ValueError("always broken")
    return Algorithm("BROKEN", run)


def _events_named(events, name):
    return [e for e in events if e.get("name") == name]


class TestTracerBasics:
    def test_disabled_by_default(self):
        tr = tracer()
        assert not tr.enabled
        # Every operation is a harmless no-op.
        tr.instant("x")
        tr.end("x", tr.begin())

    def test_tracing_restores_previous(self):
        buffer = BufferSink()
        before = tracer()
        with tracing(buffer) as active:
            assert active is buffer
            assert tracer() is buffer
        assert tracer() is before

    def test_tracing_is_scoped_to_the_installing_thread(self):
        # A portfolio's trace file must not collect what other threads
        # emit meanwhile (the daemon's event loop serving other
        # requests): tracing() installs for the calling thread only,
        # while set_tracer() stays process-wide.
        default, scoped = BufferSink(), BufferSink()
        installed, sampled = threading.Event(), threading.Event()
        seen = {}

        def other_thread():
            installed.wait(5)
            seen["tracer"] = tracer()
            sampled.set()

        previous = set_tracer(default)
        try:
            thread = threading.Thread(target=other_thread)
            thread.start()
            with tracing(scoped):
                installed.set()
                assert sampled.wait(5)
                assert tracer() is scoped
            thread.join(5)
        finally:
            set_tracer(previous)
        assert not thread.is_alive()
        assert seen["tracer"] is default

    def test_results_identical_with_tracing(self, medium_hg):
        baseline = ml_bipartition(medium_hg, seed=5)
        with tracing(BufferSink()):
            traced = ml_bipartition(medium_hg, seed=5)
        assert traced.cut == baseline.cut
        assert traced.partition.assignment == baseline.partition.assignment


#: The multilevel drivers; each runs Figure 2 through ``core/ml.py``'s
#: shared coarsening and uncoarsening loops.
ML_DRIVERS = {
    "ml_bipartition": lambda hg: ml_bipartition(hg, seed=3),
    "ml_vcycle": lambda hg: ml_vcycle(hg, cycles=1, seed=3),
    "ml_kway": lambda hg: ml_kway(hg, seed=3),
}

#: Hierarchies per driver run: the V-cycle's first ML run, then its cycle.
HIERARCHIES = {"ml_bipartition": 1, "ml_vcycle": 2, "ml_kway": 1}

#: Depth of each hierarchy's ``ml.coarsen`` span: under ``ml.bipartition``
#: or ``vcycle.cycle``, or at the top for k-way.
ML_DEPTH = {"ml_bipartition": 1, "ml_vcycle": 1, "ml_kway": 0}


def _ml_spans(levels, depth):
    """Names, depths and argument keys of one hierarchy's ML spans, in
    emission order."""
    return ([("coarsen.level", depth + 1,
              ("achieved_ratio", "coarse_modules", "level", "modules",
               "nets", "pins"))] * levels
            + [("ml.coarsen", depth,
                ("coarsest_modules", "levels", "modules", "target_ratio")),
               ("ml.initial", depth, ("cut", "modules", "starts"))]
            + [("ml.refine.level", depth,
                ("cut", "level", "modules", "passes"))] * levels)


_BIPARTITION = ("ml.bipartition", 0, ("cut", "engine", "levels", "modules",
                                      "nets", "passes", "ratio"))

#: Every span but the engines' ``fm.*`` ones, on the medium circuit at
#: seed 3.  The ``ml_bipartition`` sequence is the one it emitted before
#: the three drivers shared their level loops.
ML_SPANS = {
    "ml_bipartition": _ml_spans(4, 1) + [_BIPARTITION],
    "ml_vcycle": _ml_spans(4, 1) + [_BIPARTITION] + _ml_spans(4, 1) + [
        ("vcycle.cycle", 0, ("best_cut", "cut", "cycle", "modules"))],
    "ml_kway": _ml_spans(2, 0),
}


def _hierarchies(events):
    """One dict of ML spans per hierarchy, in the order they ran."""
    runs, levels = [], []
    for event in events:
        name = event.get("name")
        if name == "coarsen.level":
            levels.append(event)
        elif name == "ml.coarsen":
            runs.append({"coarsen": event, "levels": levels,
                         "initial": [], "refine": []})
            levels = []
        elif name == "ml.initial":
            runs[-1]["initial"].append(event)
        elif name == "ml.refine.level":
            runs[-1]["refine"].append(event)
    return runs


class TestSpanNesting:
    """Span structure of each traced ML driver mirrors its hierarchies.

    Every test checks all of :data:`ML_DRIVERS`, each run once per test
    by the ``runs`` fixture.
    """

    @pytest.fixture
    def runs(self, medium_hg):
        out = {}
        for driver, fn in ML_DRIVERS.items():
            buffer = BufferSink()
            with collecting_metrics() as registry:
                with tracing(buffer):
                    result = fn(medium_hg)
            out[driver] = result, buffer.events, registry
        return out

    def test_one_span_per_level(self, runs):
        for driver, (result, events, _) in runs.items():
            hierarchies = _hierarchies(events)
            assert len(hierarchies) == HIERARCHIES[driver], driver
            for h in hierarchies:
                levels = h["coarsen"]["args"]["levels"]
                assert len(h["levels"]) == len(h["refine"]) == levels, driver
                assert len(h["initial"]) == 1, driver
            if driver != "ml_vcycle":
                assert hierarchies[0]["coarsen"]["args"]["levels"] == \
                    result.levels, driver
            assert len(_events_named(events, "ml.bipartition")) == \
                (driver != "ml_kway"), driver

    def test_depths_match_hierarchy(self, runs):
        for driver, (_, events, _) in runs.items():
            depth = ML_DEPTH[driver]
            expected = {"ml.bipartition": 0, "ml.coarsen": depth,
                        "ml.initial": depth, "ml.refine.level": depth,
                        "coarsen.level": depth + 1, "fm.pass": depth + 2}
            for name, want in expected.items():
                for event in _events_named(events, name):
                    assert event["args"]["depth"] == want, (driver, name)

    def test_span_sequence(self, runs):
        for driver, (_, events, _) in runs.items():
            seen = [(e["name"], e["args"]["depth"],
                     tuple(sorted(k for k in e["args"] if k != "depth")))
                    for e in events
                    if e.get("ph") == "X" and not e["name"].startswith("fm.")]
            assert seen == ML_SPANS[driver], driver

    def test_level_spans_carry_structure(self, runs):
        for driver, (_, events, _) in runs.items():
            for h in _hierarchies(events):
                levels = h["coarsen"]["args"]["levels"]
                assert [e["args"]["level"] for e in h["levels"]] == \
                    list(range(1, levels + 1)), driver
                for event in h["levels"]:
                    args = event["args"]
                    assert args["coarse_modules"] < args["modules"]
                    assert 0.0 < args["achieved_ratio"] <= 1.0
                # Refinement walks coarsest-to-finest.
                assert [e["args"]["level"] for e in h["refine"]] == \
                    list(range(levels - 1, -1, -1)), driver
                assert h["refine"][-1]["args"]["modules"] == 300, driver

    def test_spans_nest_by_interval(self, runs):
        for driver, (_, events, _) in runs.items():
            spans = [e for e in events if e.get("ph") == "X"]
            for event in spans:
                depth = event["args"]["depth"]
                if depth == 0:
                    continue
                assert any(
                    parent["args"]["depth"] == depth - 1
                    and parent["ts"] <= event["ts"]
                    and event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"]
                    for parent in spans), (driver, event["name"])

    def test_phase_samples(self, runs):
        for driver, (_, _, registry) in runs.items():
            rows = registry.histogram_summaries("repro_ml_phase_seconds")
            assert {row["labels"]["phase"]: row["count"] for row in rows} \
                == dict.fromkeys(("coarsen", "initial", "refine"),
                                 HIERARCHIES[driver]), driver


class TestCrossModeTelemetry:
    """fm.pass counters are identical across the two move loops.

    A recorded run takes the same pass loop as an unrecorded one.  On
    each loop, a traced run's per-pass span counters, pass cuts and
    final assignments agree with a traced and recorded run's, and the
    recorded run's spans agree with its own ``pass`` events; both
    loops emit identical spans and ``pass`` events.
    """

    @pytest.mark.parametrize("engine_seed", [2, 11])
    def test_pass_counters_identical(self, medium_hg, engine_seed):
        per_loop = []
        for loop in each_loop():
            bare_sink = BufferSink()
            with tracing(bare_sink):
                bare = fm_bipartition(medium_hg, seed=engine_seed)
            traced_sink = BufferSink()
            taped = BufferSink()
            previous = set_recorder(taped)
            try:
                with tracing(traced_sink):
                    traced = fm_bipartition(medium_hg, seed=engine_seed)
            finally:
                set_recorder(previous)
            bare_passes = [e["args"] for e in
                           _events_named(bare_sink.events, "fm.pass")]
            ref_passes = [e["args"] for e in
                          _events_named(traced_sink.events, "fm.pass")]
            assert len(ref_passes) >= 1
            assert bare_passes == ref_passes
            assert bare.cut == traced.cut
            assert bare.pass_cuts == traced.pass_cuts
            assert bare.partition.assignment == traced.partition.assignment
            assert [e["args"]["loop"] for e in _events_named(
                traced_sink.events, "fm.run")] == [loop]
            recorded = [e for e in taped.drain() if e["t"] == "pass"]
            assert [(a["pass"], a["moves_attempted"], a["moves_committed"],
                     a["cut_after"]) for a in ref_passes] == \
                [(e["p"], e["mv"], e["k"], e["c"]) for e in recorded]
            assert [a["cut_after"] for a in ref_passes] == traced.pass_cuts
            for args in ref_passes:
                assert args["moves_attempted"] >= args["moves_committed"]
                assert args["rollback_depth"] == (args["moves_attempted"]
                                                  - args["moves_committed"])
                assert args["gain"] == (args["cut_before"]
                                        - args["cut_after"])
            for args, event in zip(ref_passes, recorded):
                assert sum(event["g"][:event["k"]]) == args["gain"]
            per_loop.append((ref_passes, recorded))
        assert all(run == per_loop[0] for run in per_loop)


@pytest.mark.parallel
class TestMultiprocessMerge:
    @staticmethod
    def _trace_run(path, jobs):
        # A fresh, identical circuit per run, so each run starts from
        # the same per-netlist cache state.
        hg = hierarchical_circuit(150, 180, seed=9, name="smoke")
        portfolio = Portfolio(_ml(), hg, runs=4, seed=0, trace=str(path))
        outcome = execute(portfolio, jobs=jobs)
        return outcome, list(read_trace(path))

    @staticmethod
    def _canonical(events):
        out = []
        for event in events:
            if event.get("ph") == "M":
                continue
            args = dict(event.get("args", {}))
            args.pop("worker", None)  # scheduling-dependent
            out.append((event["name"], event["ph"],
                        json.dumps(args, sort_keys=True)))
        return sorted(out)

    def test_merge_deterministic_and_worker_tagged(self, tmp_path):
        outcome_a, events_a = self._trace_run(tmp_path / "a.jsonl", jobs=2)
        outcome_b, events_b = self._trace_run(tmp_path / "b.jsonl", jobs=2)
        assert outcome_a.fingerprint() == outcome_b.fingerprint()
        assert self._canonical(events_a) == self._canonical(events_b)

        starts = _events_named(events_a, "portfolio.start")
        assert len(starts) == 4
        assert all(e["args"]["worker"].startswith("pid:") for e in starts)
        # Events from all worker processes landed in one file, with
        # timestamps normalised against a single epoch.
        assert len({e["pid"] for e in starts}) >= 2
        assert all(e["ts"] >= 0 for e in events_a)

    def test_parallel_trace_matches_serial_outcomes(self, tmp_path):
        outcome_s, events_s = self._trace_run(tmp_path / "s.jsonl", jobs=1)
        outcome_p, events_p = self._trace_run(tmp_path / "p.jsonl", jobs=2)
        assert outcome_s.fingerprint() == outcome_p.fingerprint()
        cuts = sorted(e["args"]["cut"]
                      for e in _events_named(events_p, "portfolio.start"))
        assert cuts == sorted(outcome_p.cuts)


class TestRetryTelemetry:
    def test_failed_attempts_traced_with_backoff(self, medium_hg):
        buffer = BufferSink()
        portfolio = Portfolio(_always_failing(), medium_hg, runs=1, seed=0,
                              retries=1, backoff_seconds=0.001)
        with tracing(buffer):
            outcome = execute(portfolio, jobs=1)
        assert outcome.records[0].status == "failed"
        starts = _events_named(buffer.events, "portfolio.start")
        assert [e["args"]["attempt"] for e in starts] == [1, 2]
        assert all(e["args"]["status"] == "failed" for e in starts)
        backoffs = _events_named(buffer.events, "portfolio.backoff")
        assert len(backoffs) == 1
        assert backoffs[0]["args"]["attempt"] == 2


class TestMetrics:
    def test_disabled_by_default(self):
        mx = metrics()
        assert not mx.enabled
        mx.counter("x", "noop").inc()  # harmless

    def test_fm_metrics_collected_and_rendered(self, medium_hg):
        with collecting_metrics() as registry:
            fm_bipartition(medium_hg, seed=1)
        text = registry.render_prometheus()
        assert "# TYPE repro_fm_runs_total counter" in text
        assert "# TYPE repro_fm_run_seconds histogram" in text
        assert 'repro_fm_runs_total{engine="fm"}' in text
        assert "repro_fm_run_seconds_bucket" in text
        assert text.endswith("\n")

    def test_merge_adds_counters(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c_total", "h", k="v").inc(2)
        b.counter("c_total", "h", k="v").inc(3)
        b.histogram("h_seconds", "h").observe(0.5)
        a.absorb(b.snapshot())
        assert a.counter("c_total", "h", k="v").value == 5
        assert a.histogram("h_seconds", "h").count == 1

    def test_portfolio_counters_merge_from_workers(self, medium_hg):
        with collecting_metrics() as registry:
            run_cell(_ml(), medium_hg, runs=2, seed=0)
        text = registry.render_prometheus()
        assert 'repro_portfolio_starts_total{status="ok"} 2' in text


class TestSurfaceAPI:
    def test_run_cell_trace_and_metrics_out(self, medium_hg, tmp_path):
        trace_path = tmp_path / "cell.trace.jsonl"
        metrics_path = tmp_path / "cell.metrics.txt"
        stats = run_cell(_ml(), medium_hg, runs=2, seed=0,
                         trace=str(trace_path),
                         metrics_out=str(metrics_path))
        plain = run_cell(_ml(), medium_hg, runs=2, seed=0)
        assert stats.cuts == plain.cuts  # observability changes nothing
        events = list(read_trace(trace_path))
        assert _events_named(events, "portfolio.start")
        assert "repro_portfolio_starts_total" in metrics_path.read_text()

    def test_trace_summary_output(self, medium_hg, tmp_path):
        trace_path = tmp_path / "run.trace.jsonl"
        run_cell(_ml(), medium_hg, runs=2, seed=0, trace=str(trace_path))
        summary = summarize_trace(trace_path)
        rendered = summary.render()
        assert "phase" in rendered
        assert "ml.bipartition" in rendered
        assert "cut by level" in rendered
        assert "portfolio: 2 finished start(s)" in rendered

    def test_trace_summary_cli(self, medium_hg, tmp_path, capsys):
        from repro.cli import main
        trace_path = tmp_path / "run.trace.jsonl"
        run_cell(_ml(), medium_hg, runs=1, seed=0, trace=str(trace_path))
        assert main(["trace-summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fm.pass" in out

    def test_portfolio_trace_validation(self, medium_hg):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            Portfolio(_ml(), medium_hg, runs=1, trace=3.14)


class TestLogging:
    def test_hierarchy_and_default_silence(self):
        log = get_logger("runtime.executor")
        assert log.name == "repro.runtime.executor"
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler)
                   for h in root.handlers)

    def test_configure_levels_and_idempotence(self):
        root = logging.getLogger("repro")

        def cli_handlers():
            return [h for h in root.handlers
                    if getattr(h, "_repro_cli_handler", False)]

        try:
            configure_logging(verbosity=1)
            assert root.level == logging.INFO
            configure_logging(verbosity=2)
            assert root.level == logging.DEBUG
            configure_logging(level="WARNING")
            assert root.level == logging.WARNING
            assert len(cli_handlers()) == 1
        finally:
            for handler in cli_handlers():
                root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_retry_notice_logged(self, medium_hg, caplog):
        portfolio = Portfolio(_always_failing(), medium_hg, runs=1, seed=0,
                              retries=1)
        with caplog.at_level(logging.INFO, logger="repro"):
            execute(portfolio, jobs=1)
        assert any("retrying start 0" in r.message for r in caplog.records)


class TestTraceToleranceRules:
    """The checkpoint tolerance rules, applied to trace reading: a
    truncated *final* line is a crash signature and is dropped;
    corruption anywhere else raises a clean error; unknown or
    malformed events never crash the summary."""

    def test_empty_trace_summarizes_to_notice(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_trace(path)
        assert summary.events == 0
        assert "no events" in summary.render()

    def test_header_only_trace(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text("[\n")
        assert list(read_trace(path)) == []
        assert "no events" in summarize_trace(path).render()

    def test_truncated_final_line_dropped(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text(
            '{"name": "a", "ph": "X", "ts": 0, "dur": 5}\n'
            '{"name": "b", "ph": "X", "ts": 5, "du')
        events = list(read_trace(path))
        assert [e["name"] for e in events] == ["a"]
        assert summarize_trace(path).events == 1

    def test_midfile_corruption_raises(self, tmp_path):
        from repro.errors import ReproError
        path = tmp_path / "corrupt.jsonl"
        path.write_text(
            '{"name": "a", "ph": "X", "ts": 0, "dur": 5}\n'
            '{"name": "b", "ph": "X", bad\n'
            '{"name": "c", "ph": "X", "ts": 9, "dur": 1}\n')
        with pytest.raises(ReproError, match="line 2"):
            list(read_trace(path))

    def test_unknown_event_shapes_tolerated(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text("\n".join([
            '{"name": "a", "ph": "X", "ts": 0, "dur": 5}',
            '"just a string"',
            '{"ph": "X", "dur": "not-a-number", "args": "not-a-dict"}',
            '{"name": "mystery", "ph": "Z"}',
            '{"name": "ml.initial", "ph": "X", "ts": 1, "dur": 1,'
            ' "args": {"cut": 3, "modules": "many"}}',
        ]) + "\n")
        summary = summarize_trace(path)  # must not raise
        assert summary.events == 4  # the bare string is not an event
        assert summary.phases["a"].total_us == 5
        # Non-int dur coerces to 0; the event still counts.
        assert summary.phases["?"].count == 1

    def test_trace_summary_cli_empty_file(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "empty.trace.jsonl"
        path.write_text("")
        assert main(["trace-summary", str(path)]) == 0
        assert "no events" in capsys.readouterr().out
