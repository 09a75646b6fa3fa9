"""Unit tests for the request-scoped telemetry primitives.

Everything in-process: the thread-local trace context, histogram
quantiles and the exposition lint, the sampling/memory profilers, the
service-trace regrouper, and the ops-console renderer.  The end-to-end
daemon behaviour (IDs across real sockets and forked workers) lives in
``test_service_telemetry.py``.
"""

import json
import math
import threading
import time

import pytest

from repro.obs import (BufferSink, read_jsonl, render_status, set_tracer,
                       summarize_trace, trace_context, trace_scope)
from repro.obs.metrics import (Histogram, MetricsRegistry,
                               SERVICE_BUCKETS, lint_prometheus)
from repro.obs.profile import (SamplingProfiler, enable_memory_profiling,
                               memory_peak, memory_profiling_enabled)


class TestTraceContext:
    def test_empty_by_default(self):
        assert trace_context() == {}

    def test_scope_merges_and_restores(self):
        with trace_scope(trace_id="t1"):
            assert trace_context() == {"trace_id": "t1"}
            with trace_scope(exec_id="e1"):
                assert trace_context() == {"trace_id": "t1",
                                           "exec_id": "e1"}
            assert trace_context() == {"trace_id": "t1"}
        assert trace_context() == {}

    def test_none_values_dropped(self):
        with trace_scope(trace_id=None, exec_id="e1"):
            assert trace_context() == {"exec_id": "e1"}

    def test_context_stamped_into_span_args(self):
        tracer = BufferSink()
        previous = set_tracer(tracer)
        try:
            with trace_scope(trace_id="t-9"):
                t0 = tracer.begin()
                tracer.end("phase", t0, {"cut": 3})
                tracer.instant("tick")
            t0 = tracer.begin()
            tracer.end("outside", t0, {"cut": 4})
        finally:
            set_tracer(previous)
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["phase"]["args"]["trace_id"] == "t-9"
        assert by_name["phase"]["args"]["cut"] == 3
        assert by_name["tick"]["args"]["trace_id"] == "t-9"
        assert "trace_id" not in by_name["outside"]["args"]

    def test_explicit_args_override_context(self):
        tracer = BufferSink()
        previous = set_tracer(tracer)
        try:
            with trace_scope(trace_id="ambient"):
                t0 = tracer.begin()
                tracer.end("phase", t0, {"trace_id": "explicit"})
        finally:
            set_tracer(previous)
        assert tracer.events[0]["args"]["trace_id"] == "explicit"

    def test_thread_local_isolation(self):
        seen = {}

        def worker():
            seen["worker"] = trace_context()

        with trace_scope(trace_id="main-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["worker"] == {}


class TestHistogramQuantile:
    def test_empty_is_nan(self):
        h = Histogram()
        assert math.isnan(h.quantile(0.5))

    def test_interpolates_within_bucket(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # rank 2 of 4 lands in the (1, 2] bucket holding 2 samples.
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_overflow_clamps_to_last_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_summary_keys(self):
        h = Histogram(buckets=SERVICE_BUCKETS)
        h.observe(0.002)
        summary = h.summary()
        assert set(summary) == {"count", "sum", "p50", "p90", "p99"}
        assert summary["count"] == 1

    def test_registry_summaries(self):
        registry = MetricsRegistry()
        registry.histogram("lat", "x", endpoint="a").observe(0.01)
        registry.histogram("lat", "x", endpoint="b").observe(0.02)
        rows = registry.histogram_summaries("lat")
        assert [r["labels"]["endpoint"] for r in rows] == ["a", "b"]
        assert registry.histogram_summaries("missing") == []
        registry.counter("c", "x").inc()
        assert registry.histogram_summaries("c") == []


class TestPrometheusLint:
    def _real_exposition(self) -> str:
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests.",
                         code="200").inc(3)
        registry.gauge("repro_depth", "Queue depth.").set(2)
        hist = registry.histogram("repro_lat_seconds", "Latency.",
                                  buckets=SERVICE_BUCKETS,
                                  endpoint="partition")
        for v in (0.0002, 0.004, 2.0):
            hist.observe(v)
        return registry.render_prometheus()

    def test_real_output_is_clean(self):
        assert lint_prometheus(self._real_exposition()) == []

    def test_label_escaping_is_clean_and_roundtrips(self):
        registry = MetricsRegistry()
        hostile = 'a"b\\c\nd'
        registry.counter("repro_evil_total", 'help with "quotes"\nand',
                         circuit=hostile).inc()
        text = registry.render_prometheus()
        assert lint_prometheus(text) == []
        assert '\\"' in text and "\\n" in text

    def test_detects_duplicate_type(self):
        text = ("# TYPE x counter\n# TYPE x counter\nx 1\n")
        assert any("duplicate # TYPE" in p for p in lint_prometheus(text))

    def test_detects_metadata_after_samples(self):
        text = "x 1\n# TYPE x counter\n"
        assert any("after samples" in p for p in lint_prometheus(text))

    def test_detects_non_monotone_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="2"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 4\n"
                "h_count 5\n")
        assert any("not monotone" in p for p in lint_prometheus(text))

    def test_detects_missing_inf_and_count_mismatch(self):
        missing_inf = ("# TYPE h histogram\n"
                       'h_bucket{le="1"} 1\nh_sum 1\nh_count 1\n')
        assert any("+Inf" in p for p in lint_prometheus(missing_inf))
        mismatch = ("# TYPE h histogram\n"
                    'h_bucket{le="+Inf"} 4\nh_sum 1\nh_count 5\n')
        assert any("!= +Inf" in p for p in lint_prometheus(mismatch))

    def test_detects_non_contiguous_family(self):
        text = ("# TYPE a counter\n# TYPE b counter\n"
                "a 1\nb 1\na 2\n")
        assert any("not contiguous" in p for p in lint_prometheus(text))

    def test_detects_unparseable_sample(self):
        assert any("unparseable" in p
                   for p in lint_prometheus("not a sample!!\n"))

    def test_missing_trailing_newline(self):
        assert any("newline" in p for p in lint_prometheus("x 1"))


class TestSamplingProfiler:
    def test_collects_samples_and_renders_collapsed(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.start()
        try:
            deadline = time.monotonic() + 1.0
            while profiler.samples < 3 and time.monotonic() < deadline:
                sum(i * i for i in range(2000))
        finally:
            profiler.stop()
        assert profiler.samples >= 1
        collapsed = profiler.collapsed()
        line = collapsed.splitlines()[0]
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack
        stats = profiler.stats()
        assert stats["running"] is False
        assert stats["unique_stacks"] >= 1

    def test_write(self, tmp_path):
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.sample_once()
        out = tmp_path / "p" / "profile.collapsed"
        profiler.write(out)
        assert out.exists()

    def test_idempotent_start_stop(self):
        profiler = SamplingProfiler(interval_seconds=0.001)
        profiler.start()
        profiler.start()
        profiler.stop()
        profiler.stop()
        assert profiler.running is False


class TestMemoryPeak:
    def test_noop_when_disabled(self):
        assert memory_profiling_enabled() is False
        with memory_peak() as peak:
            [0] * 10_000
        assert peak.peak_bytes is None

    def test_captures_peak_when_enabled(self):
        enable_memory_profiling(True)
        try:
            with memory_peak() as peak:
                blob = [0] * 50_000
                del blob
        finally:
            enable_memory_profiling(False)
        assert peak.peak_bytes is not None
        assert peak.peak_bytes > 50_000 * 4


def _span(name, ts, dur, **args):
    return {"ph": "X", "name": name, "ts": ts, "dur": dur, "pid": 1,
            "tid": 1, "args": args}


class TestServiceTraceTrees:
    def _write(self, tmp_path, events):
        path = tmp_path / "svc.trace.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return path

    def test_regroups_requests_by_execution(self, tmp_path):
        events = [
            _span("fm.pass", 10, 5, trace_id="t1"),
            _span("service.execute", 5, 100, exec_id="r1",
                  trace_id="t1", batch=1),
            _span("service.request", 0, 120, request_id="q1",
                  trace_id="t1", method="POST", endpoint="partition",
                  status=200, exec_id="r1"),
            _span("service.request", 50, 10, request_id="q2",
                  trace_id="t2", method="POST", endpoint="partition",
                  status=200, exec_id="r1", cached=True),
            _span("service.request", 200, 1, request_id="q3",
                  trace_id="t3", method="GET", endpoint="metrics",
                  status=200),
        ]
        summary = summarize_trace(self._write(tmp_path, events))
        assert summary.is_service_trace
        assert len(summary.requests) == 3
        tree = summary.executions["r1"]
        assert [r.request_id for r in tree.requests] == ["q1", "q2"]
        assert tree.phases["fm.pass"].count == 1
        rendered = summary.render()
        assert "execution r1" in rendered
        assert "served 2 request(s)" in rendered
        assert "[cached]" in rendered
        assert "q3" in rendered

    def test_non_service_trace_is_empty(self, tmp_path):
        events = [_span("ml.coarsen", 0, 10)]
        summary = summarize_trace(self._write(tmp_path, events))
        assert not summary.is_service_trace


class TestConsoleRender:
    def _status(self):
        return {
            "status": "ok", "uptime_seconds": 125.0,
            "counters": {"requests": 10, "coalesced": 2,
                         "degraded_served": 0, "errors": 1},
            "result_cache": {"hits": 8, "misses": 2},
            "lane": {"queued": 1, "max_queued": 32, "busy": True,
                     "shed": 0, "expired": 0},
            "breaker": {"open_keys": 0, "trips": 0},
            "connections": 3, "jobs_live": 0,
            "latency": {"latency": [
                {"labels": {"endpoint": "partition"}, "count": 10,
                 "sum": 0.5, "p50": 0.0008, "p90": 0.002, "p99": 0.03}],
                "queue_wait": [], "execution": []},
            "in_flight": [
                {"id": "r1", "state": "executing", "age_seconds": 1.2,
                 "deadline_in_seconds": 28.8, "trace_id": "t-abc"}],
            "profiler": {"enabled": True, "samples": 42,
                         "unique_stacks": 7},
        }

    def test_renders_all_sections_plain(self):
        frame = render_status(self._status(), server="host:1", color=False)
        assert "repro top — host:1" in frame
        assert "cache hit: 80.0%" in frame
        assert "partition" in frame and "800µs" in frame
        assert "r1" in frame and "t-abc" in frame
        assert "42 samples" in frame
        assert "\x1b[" not in frame

    def test_color_mode_emits_ansi(self):
        frame = render_status(self._status(), color=True)
        assert "\x1b[1m" in frame

    def test_tolerates_missing_sections(self):
        frame = render_status({"status": "ok"}, color=False)
        assert "(no samples yet)" in frame
        assert "(idle)" in frame


class TestTolerantJsonlReader:
    def test_skips_truncated_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n'
                        'not json\n'
                        '[1, 2]\n'
                        '{"b": 2}\n'
                        '{"trunc')
        rows = list(read_jsonl(path))
        assert rows == [{"a": 1}, {"b": 2}]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(read_jsonl(tmp_path / "absent.jsonl")) == []
