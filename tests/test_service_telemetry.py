"""End-to-end request-scoped telemetry: real daemon, real sockets.

The contracts pinned here:

* a client-supplied ``X-Trace-Id`` reaches every span of the merged
  trace — including ``fm.pass`` spans emitted inside forked worker
  processes — and the run's ledger entry;
* a coalesced burst of identical requests produces exactly one
  execution tree whose ``exec_id`` every request-scoped root span
  references;
* a traced request's own trace holds its execution only: root spans
  of requests served meanwhile stay in the daemon trace;
* ``/status`` and ``/profile`` serve the ops surfaces;
* the access log records one tolerant-readable JSONL line per request;
* the scraped latency histogram agrees with client-side stopwatches
  (the in-process analogue of the bench assertion).
"""

import json
import threading
import time

import pytest

from repro.faults import FAULT_HANG, FaultPlan
from repro.obs import read_trace, summarize_trace
from repro.obs.ledger import read_ledger
from repro.obs.metrics import lint_prometheus
from repro.service import ServiceError
from repro.service.server import read_access_log

from tests.test_service_server import _ServerThread, _body

pytestmark = pytest.mark.service


class TestTracePropagation:
    def test_client_trace_id_reaches_workers_and_ledger(
            self, tiny_hg, tmp_path, monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        trace = tmp_path / "serve.trace.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        with _ServerThread(server_kw={"trace_path": str(trace)},
                           jobs=2) as srv:
            with srv.client() as client:
                payload = client.partition(_body(tiny_hg, runs=4),
                                           trace_id="t-e2e",
                                           request_id="q-e2e")
        assert payload["request_id"] == "q-e2e"
        assert payload["trace_id"] == "t-e2e"
        exec_id = payload["id"]

        events = [e for e in read_trace(trace) if isinstance(e, dict)]
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans, "daemon trace is empty"
        pids = {e.get("pid") for e in spans}
        assert len(pids) >= 2, "expected spans from forked workers too"

        fm_passes = [e for e in spans if e.get("name") == "fm.pass"]
        assert fm_passes, "no worker-side fm.pass spans in merged trace"
        for span in fm_passes:
            assert span["args"]["trace_id"] == "t-e2e"
        # Everything between the root and the workers carries it too.
        for name in ("service.execute", "portfolio.start", "fm.run"):
            carrying = [e for e in spans if e.get("name") == name]
            assert carrying, f"no {name} span"
            assert all(e["args"]["trace_id"] == "t-e2e"
                       for e in carrying)

        roots = [e for e in spans if e.get("name") == "service.request"
                 and e["args"].get("endpoint") == "partition"]
        assert len(roots) == 1
        assert roots[0]["args"]["request_id"] == "q-e2e"
        assert roots[0]["args"]["exec_id"] == exec_id

        entries = [e for e in read_ledger(ledger)
                   if e.get("kind") == "portfolio"]
        assert entries and entries[-1]["trace_id"] == "t-e2e"

    def test_generated_ids_echoed_when_absent(self, tiny_hg):
        with _ServerThread() as srv:
            with srv.client() as client:
                payload = client.partition(_body(tiny_hg))
        assert payload["request_id"]
        assert payload["trace_id"] == payload["request_id"]


class TestCoalescedBurstTrace:
    def test_burst_yields_one_execution_tree(self, tiny_hg, tmp_path):
        trace = tmp_path / "burst.trace.jsonl"
        width = 8
        body = _body(tiny_hg, runs=6, seed=11)
        results = [None] * width
        errors = []
        with _ServerThread(server_kw={"trace_path": str(trace)}) as srv:
            barrier = threading.Barrier(width)

            def fire(i):
                try:
                    with srv.client() as client:
                        barrier.wait(10)
                        results[i] = client.partition(
                            body, request_id=f"burst-{i}")
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(width)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        assert not errors, errors
        exec_ids = {r["id"] for r in results}
        assert len(exec_ids) == 1, "burst did not share one execution"

        spans = [e for e in read_trace(trace)
                 if isinstance(e, dict) and e.get("ph") == "X"]
        executions = [e for e in spans
                      if e.get("name") == "service.execute"]
        assert len(executions) == 1, \
            f"expected exactly one execution tree, got {len(executions)}"
        exec_id = executions[0]["args"]["exec_id"]
        roots = [e for e in spans if e.get("name") == "service.request"
                 and e["args"].get("endpoint") == "partition"]
        assert len(roots) == width
        assert all(r["args"]["exec_id"] == exec_id for r in roots)
        assert {r["args"]["request_id"] for r in roots} == \
            {f"burst-{i}" for i in range(width)}

        summary = summarize_trace(trace)
        assert summary.is_service_trace
        assert len(summary.executions[exec_id].requests) == width


class TestPerRequestTraceScope:
    def test_concurrent_hits_stay_out_of_a_traced_request(self, tiny_hg,
                                                           tmp_path):
        daemon_trace = tmp_path / "daemon.trace.jsonl"
        hit = _body(tiny_hg, runs=1, seed=5)
        # Start 1 of the traced request hangs inside its execution, so
        # the cache hits below are served while it runs.
        plan = FaultPlan(hang_seconds=1.0, targeted={(1, 1): FAULT_HANG})
        traced = {}
        with _ServerThread(server_kw={"trace_path": str(daemon_trace)},
                           faults=plan) as srv:
            with srv.client() as client:
                client.partition(hit, request_id="warm")
            done = threading.Event()

            def run_traced():
                with srv.client() as client:
                    traced["payload"] = client.partition(
                        _body(tiny_hg, runs=2, seed=5, trace=True),
                        request_id="traced")
                    traced["trace"] = client.trace(traced["payload"]["id"])
                done.set()

            thread = threading.Thread(target=run_traced)
            thread.start()
            hit_ids = []
            with srv.client() as client:
                while not done.is_set():
                    request_id = f"hit-{len(hit_ids)}"
                    assert client.partition(hit, request_id=request_id
                                            )["cached"] is True
                    hit_ids.append(request_id)
                    time.sleep(0.01)
            thread.join(30)
        assert not thread.is_alive()
        assert len(hit_ids) >= 5, "no hits overlapped the traced request"

        own = tmp_path / "own.trace.jsonl"
        own.write_bytes(traced["trace"])
        own_events = list(read_trace(own))
        assert len([e for e in own_events
                    if e.get("name") == "portfolio.start"]) == 2
        foreign = [e["args"]["request_id"] for e in own_events
                   if e.get("name") == "service.request"
                   and e["args"].get("request_id") != "traced"]
        assert foreign == []
        roots = {e["args"]["request_id"] for e in read_trace(daemon_trace)
                 if e.get("name") == "service.request"}
        assert set(hit_ids) <= roots


class TestStatusEndpoint:
    def test_status_shape_and_latency_summaries(self, tiny_hg):
        with _ServerThread() as srv:
            with srv.client() as client:
                client.partition(_body(tiny_hg))
                status = client.status()
        for key in ("lane", "breaker", "result_cache", "counters",
                    "in_flight", "latency", "profiler", "connections"):
            assert key in status, f"/status missing {key!r}"
        assert status["profiler"]["enabled"] is False
        assert isinstance(status["in_flight"], list)
        rows = status["latency"]["latency"]
        partition_rows = [r for r in rows
                          if r["labels"].get("endpoint") == "partition"]
        assert partition_rows and partition_rows[0]["count"] == 1
        assert partition_rows[0]["p50"] is not None

    def test_in_flight_table_during_execution(self, tiny_hg):
        body = _body(tiny_hg, runs=40, seed=3)
        with _ServerThread(server_kw={"drain_seconds": 30.0}) as srv:
            done = threading.Event()
            holder = {}

            def slow():
                with srv.client() as client:
                    holder["payload"] = client.partition(
                        body, trace_id="t-inflight")
                done.set()

            thread = threading.Thread(target=slow)
            thread.start()
            rows = []
            with srv.client() as client:
                deadline = time.monotonic() + 20
                while not rows and time.monotonic() < deadline \
                        and not done.is_set():
                    rows = client.status()["in_flight"]
            done.wait(60)
            thread.join(10)
        if rows:  # tiny netlists can finish before the poll lands
            assert rows[0]["state"] in ("executing", "queued")
            assert rows[0]["age_seconds"] >= 0
            assert rows[0]["trace_id"] == "t-inflight"


class TestProfileEndpoint:
    def test_404_when_disabled(self, tiny_hg):
        with _ServerThread() as srv:
            with srv.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.profile()
        assert excinfo.value.status == 404

    def test_profile_served_and_written_on_shutdown(self, tiny_hg,
                                                    tmp_path):
        profile_dir = tmp_path / "prof"
        with _ServerThread(server_kw={
                "profile_dir": str(profile_dir),
                "profile_interval": 0.002}) as srv:
            with srv.client() as client:
                client.partition(_body(tiny_hg, runs=4))
                status = client.status()
                text = client.profile()
        assert status["profiler"]["enabled"] is True
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and stack
        assert (profile_dir / "profile.collapsed").exists()

    def test_ledger_records_memory_peak_when_profiling(
            self, tiny_hg, tmp_path, monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        with _ServerThread(server_kw={
                "profile_dir": str(tmp_path / "prof")}) as srv:
            with srv.client() as client:
                client.partition(_body(tiny_hg))
        entries = [e for e in read_ledger(ledger)
                   if e.get("kind") == "portfolio"]
        assert entries
        assert entries[-1].get("peak_mem_bytes", 0) > 0


class TestAccessLog:
    def test_one_tolerant_line_per_request(self, tiny_hg, tmp_path):
        log = tmp_path / "access.jsonl"
        with _ServerThread(server_kw={
                "access_log_path": str(log)}) as srv:
            with srv.client() as client:
                client.partition(_body(tiny_hg))
                client.partition(_body(tiny_hg))  # cache hit
                client.healthz()
        with open(log, "a", encoding="utf-8") as f:
            f.write('{"trunc')  # simulate a killed writer
        records = list(read_access_log(log))
        assert len(records) == 3
        partitions = [r for r in records if r["route"] == "/partition"]
        assert [r["cached"] for r in partitions] == [False, True]
        assert partitions[0]["exec_id"] == partitions[1]["exec_id"]
        for r in records:
            assert {"ts", "request_id", "trace_id", "method", "route",
                    "status", "latency_ms"} <= set(r)
            assert r["status"] == 200
            assert r["latency_ms"] >= 0


class TestLatencyHistogramAgreement:
    def test_scrape_quantiles_match_client_stopwatch(self, tiny_hg):
        """In-process version of the bench assertion: the daemon's
        admission-to-response histogram must agree with what a client
        measures on the cache-hit path."""
        body = _body(tiny_hg)
        samples = []
        with _ServerThread() as srv:
            with srv.client() as client:
                client.partition(body)  # warm the cache
                for _ in range(50):
                    t0 = time.perf_counter()
                    payload = client.partition(body)
                    samples.append(time.perf_counter() - t0)
                    assert payload["cached"] is True
                text = client.metrics()
                assert lint_prometheus(text) == []
                p50 = client.histogram_quantile(
                    "repro_service_latency_seconds", 0.5,
                    endpoint="partition")
        samples.sort()
        client_p50 = samples[len(samples) // 2]
        # Histogram quantiles are bucket-interpolated; sub-millisecond
        # hits quantise to the 1-2.5-5 grid, so allow a bucket of slack
        # rather than the bench's 20% (which has 1000 samples).
        assert p50 == pytest.approx(client_p50, rel=1.5, abs=0.002)


class TestClientQuantile:
    def test_scraped_estimate_is_the_registry_estimate(self):
        import math
        from repro.obs.metrics import MetricsRegistry
        from repro.service import ServiceClient
        registry = MetricsRegistry()
        bounds = (0.001, 0.01, 0.1, 1.0)
        series = registry.histogram("h_seconds", "h", buckets=bounds,
                                    endpoint="partition")
        # The last sample lies past the last finite bucket.
        for value in (0.0005, 0.004, 0.004, 0.02, 0.3, 0.7, 4.0):
            series.observe(value)
        registry.histogram("h_seconds", "h", buckets=bounds,
                           endpoint="other").observe(0.05)
        empty = registry.histogram("h_seconds", "h", buckets=bounds,
                                   endpoint="idle")
        client = ServiceClient("127.0.0.1", 1)
        client.metrics = registry.render_prometheus  # no server needed
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            scraped = client.histogram_quantile("h_seconds", q,
                                                endpoint="partition")
            assert scraped == pytest.approx(series.quantile(q), abs=1e-12)
            assert math.isnan(client.histogram_quantile(
                "h_seconds", q, endpoint="idle"))
            assert math.isnan(empty.quantile(q))
        assert client.histogram_quantile(
            "h_seconds", 1.0, endpoint="partition") == 1.0  # clamped
        assert math.isnan(client.histogram_quantile("absent_seconds", 0.5))
