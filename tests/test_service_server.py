"""End-to-end daemon tests: real sockets, real signals.

The in-process tests run a :class:`PartitionServer` on a background
thread (its own event loop, port 0) and talk to it with the stdlib
:class:`ServiceClient` — the same path ``repro client``, the service
benchmark, and the CI smoke step use.  The shutdown test goes further
and runs ``repro serve`` as a subprocess, SIGTERMs it mid-life, and
asserts a clean exit with an untruncated ledger.
"""

import asyncio
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.hypergraph import hierarchical_circuit, write_json
from repro.service import (PartitionServer, ServiceClient, ServiceEngine,
                           ServiceError, inline_netlist)

pytestmark = pytest.mark.service

_SRC = str(Path(repro.__file__).resolve().parents[1])


class _ServerThread:
    """A live daemon on a background thread, port picked by the OS."""

    def __init__(self, server_kw=None, **engine_kw):
        engine_kw.setdefault("jobs", 1)
        server_kw = dict(server_kw or {})
        server_kw.setdefault("host", "127.0.0.1")
        server_kw.setdefault("port", 0)
        server_kw.setdefault("drain_seconds", 10.0)
        self.server = PartitionServer(ServiceEngine(**engine_kw),
                                      **server_kw)
        self._ready = threading.Event()
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever(install_signals=False)

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(10), "server did not come up"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(15)
        assert not self._thread.is_alive(), "server did not drain"

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, **kw) -> ServiceClient:
        kw.setdefault("timeout", 60.0)
        return ServiceClient("127.0.0.1", self.port, **kw)


def _body(tiny_hg, **overrides) -> dict:
    body = {"netlist": {"inline": inline_netlist(tiny_hg)},
            "algorithm": "fm", "runs": 2, "seed": 5}
    body.update(overrides)
    return body


class TestEndpoints:
    def test_health_version_metrics(self):
        with _ServerThread() as srv, srv.client() as client:
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["lane"]["draining"] is False
            version = client.version()
            assert version["name"] == "repro"
            assert version["version"] == repro.__version__
            # git_sha matches the CLI's probe (both may be None
            # outside a checkout, but they must agree).
            from repro.obs import git_sha
            assert version["git_sha"] == git_sha()
            text = client.metrics()
            assert "repro_service_requests_total" in text
            assert "repro_service_cache_entries" in text

    def test_partition_roundtrip_and_cache_hit(self, tiny_hg):
        with _ServerThread() as srv, srv.client() as client:
            first = client.partition(_body(tiny_hg))
            assert first["cached"] is False
            assert first["min_cut"] == min(first["cuts"])
            assert len(first["cuts"]) == 2
            second = client.partition(_body(tiny_hg))
            assert second["cached"] is True
            assert second["fingerprint"] == first["fingerprint"]
            assert client.metric_value(
                "repro_service_cache_hits_total") == 1.0
            assert client.metric_value(
                "repro_service_executed_portfolios_total") == 1.0

    def test_served_fingerprint_matches_cli_run(self, tiny_hg, tmp_path,
                                                monkeypatch):
        netlist = tmp_path / "tiny.json"
        write_json(tiny_hg, str(netlist))
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        with _ServerThread() as srv, srv.client() as client:
            served = client.partition(_body(tiny_hg))
        # Same (netlist, config, seed) through the CLI entry point.
        assert main(["partition", str(netlist), "--algorithm", "fm",
                     "--runs", "2", "--seed", "5"]) == 0
        entries = [json.loads(line)
                   for line in ledger.read_text().splitlines()]
        assert len(entries) == 2  # one served, one CLI
        assert entries[0]["fingerprint"] == served["fingerprint"]
        assert entries[1]["fingerprint"] == served["fingerprint"]
        assert entries[0]["cuts"] == entries[1]["cuts"] == served["cuts"]

    def test_sweep_batches_and_reports_job(self, tiny_hg):
        with _ServerThread() as srv, srv.client() as client:
            job_id = client.sweep(
                [_body(tiny_hg, seed=s, runs=1) for s in range(4)])
            done = client.wait_job(job_id, timeout=60)
            assert done["state"] == "done"
            assert done["done"] == done["total"] == 4
            results = done["result"]["results"]
            assert len({r["fingerprint"] for r in results}) == 4
            # All four distinct-seed requests were merged into one (or
            # at worst two — the first may start before the rest
            # queue) executor invocations.
            executed = client.metric_value(
                "repro_service_executed_portfolios_total")
            assert executed <= 2
            assert client.metric_value(
                "repro_service_executed_starts_total") == 4.0

    def test_trace_download(self, tiny_hg, tmp_path):
        from repro.obs import read_trace
        with _ServerThread() as srv, srv.client() as client:
            payload = client.partition(_body(tiny_hg, trace=True))
            assert payload["trace"].startswith("/trace/")
            raw = client.trace(payload["id"])
        copy = tmp_path / "downloaded.trace.jsonl"
        copy.write_bytes(raw)
        events = list(read_trace(str(copy)))
        assert events, "trace stream is empty"
        assert any(e.get("ph") == "X" for e in events)

    def test_record_download(self, tiny_hg, tmp_path):
        from repro.obs import group_starts, read_record, replay_recording
        with _ServerThread() as srv, srv.client() as client:
            payload = client.partition(_body(tiny_hg, record=True))
            assert payload["record"] == f"/record/{payload['id']}"
            raw = client.record(payload["id"])
            with pytest.raises(ServiceError) as exc:
                client.record("r999999-deadbeef")
            assert exc.value.status == 404
        copy = tmp_path / "downloaded.record.jsonl"
        copy.write_bytes(raw)
        events = [e for block in group_starts(read_record(str(copy)))
                  .values() for e in block]
        assert {e["t"] for e in events} >= {"start", "pass", "result"}
        # The downloaded stream is a full flight recording: it replays
        # clean against the same netlist, final partitions included.
        report = replay_recording(str(copy), tiny_hg)
        assert report.ok, report.render()
        assert report.results_verified == 2

    def test_error_paths(self, tiny_hg):
        with _ServerThread() as srv, srv.client() as client:
            with pytest.raises(ServiceError) as exc:
                client.partition({"algorithm": "fm"})  # no netlist
            assert exc.value.status == 400
            with pytest.raises(ServiceError) as exc:
                client._json("GET", "/no-such-endpoint")
            assert exc.value.status == 404
            with pytest.raises(ServiceError) as exc:
                client._json("GET", "/partition")  # wrong method
            assert exc.value.status == 405
            with pytest.raises(ServiceError) as exc:
                client.job("j999999-deadbeef")
            assert exc.value.status == 404
            with pytest.raises(ServiceError) as exc:
                client.trace("r999999-deadbeef")
            assert exc.value.status == 404
            # The connection survives all of the above.
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("inline", [
        {"num_modules": 2 ** 63, "nets": [[0, 1]]},
        {"num_modules": 10 ** 9, "nets": [[0, 1]]},
        {"num_modules": 2, "nets": [[0, 1]], "net_weights": [1e999]},
        {"num_modules": 2, "nets": [[0, "x"]]},
        {"num_modules": 2, "nets": 5},
    ], ids=["huge-module-count", "module-count-beyond-pins",
            "infinite-weight", "str-pin", "nets-not-a-list"])
    def test_malformed_inline_netlist_is_a_client_error(self, inline):
        with _ServerThread() as srv, srv.client() as client:
            with pytest.raises(ServiceError) as exc:
                client.partition({"netlist": {"inline": inline},
                                  "algorithm": "fm", "runs": 1})
            assert exc.value.status == 400
            assert "invalid inline netlist" in str(exc.value)


class TestGracefulShutdown:
    def test_idle_keep_alive_client_closes_quietly(self, caplog):
        # The client's connection stays open and idle across the
        # shutdown, so the daemon cancels a handler parked between
        # requests: that must close the socket without an ERROR log.
        with caplog.at_level(logging.WARNING):
            with _ServerThread() as srv:
                client = srv.client()
                assert client.healthz()["status"] == "ok"
            client.close()
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.ERROR] == []

    def _spawn(self, tmp_path: Path, ledger: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        env["REPRO_LEDGER"] = str(ledger)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--drain-seconds", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=str(tmp_path), env=env, text=True)
        line = proc.stdout.readline()
        assert "listening on" in line, f"no readiness line: {line!r}"
        port = int(line.rstrip().rsplit(":", 1)[1])
        return proc, port

    def test_signal_handlers_installed_before_readiness_line(
            self, monkeypatch):
        # A supervisor may SIGTERM the moment it reads the readiness
        # line; by then the signal must already route to the drain.
        import io
        server = PartitionServer(ServiceEngine(jobs=1), host="127.0.0.1",
                                 port=0, drain_seconds=5.0)
        seen = []

        class Probe(io.StringIO):
            def write(self, text):
                if "listening on" in text:
                    seen.append(signal.getsignal(signal.SIGTERM))
                    server.request_shutdown()
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Probe())
        asyncio.run(server.run())
        assert len(seen) == 1
        assert seen[0] is not signal.SIG_DFL

    def test_sigterm_right_after_readiness_exits_clean(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(3):
            proc, _port = self._spawn(tmp_path, ledger)
            try:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            assert proc.returncode == 0, proc.stderr.read()

    def test_sigterm_drains_and_leaves_no_truncated_ledger(
            self, tiny_hg, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        proc, port = self._spawn(tmp_path, ledger)
        try:
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                # A couple of real runs so the ledger has content.
                for seed in (1, 2):
                    payload = client.partition(_body(tiny_hg, seed=seed))
                    assert payload["cached"] is False
                proc.send_signal(signal.SIGTERM)
                # Once draining, new work is refused with 503 (the
                # socket may also just be closed, which is fine too).
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    try:
                        client.partition(_body(tiny_hg, seed=99))
                    except ServiceError as exc:
                        assert exc.status == 503
                        break
                    except OSError:
                        break
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, proc.stderr.read()
        lines = ledger.read_text().splitlines()
        assert len(lines) >= 2
        for line in lines:  # every line parses -> nothing truncated
            entry = json.loads(line)
            assert entry["fingerprint"]

    def test_sigterm_waits_for_inflight_portfolio(self, tmp_path):
        # Submit a slow request, SIGTERM while it executes, and expect
        # the response to still arrive and its ledger line to be
        # complete: drain waits for the in-flight portfolio.
        ledger = tmp_path / "ledger.jsonl"
        proc, port = self._spawn(tmp_path, ledger)
        result: dict = {}

        def slow_request():
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                result["payload"] = client.partition({
                    "netlist": {"generate": {"name": "primary1",
                                             "scale": 0.3, "seed": 1}},
                    "algorithm": "mlc", "runs": 4, "seed": 3})

        try:
            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.4)  # let the request reach the lane
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=120)
            assert not worker.is_alive()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, proc.stderr.read()
        assert result["payload"]["min_cut"] >= 0
        lines = ledger.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["fingerprint"] == \
            result["payload"]["fingerprint"]


class TestPoolWorkerSignals:
    """Regression: seed wedge under ``repro serve --jobs 2``.

    The daemon's event loop installs SIGTERM/SIGINT handlers and a
    signal wakeup fd; ``fork``-started pool workers inherited both, so
    ``Pool.terminate()``'s SIGTERM at portfolio teardown was swallowed
    and the *second* multi-start request wedged the service forever.
    ``_pool_worker_init`` restores default signal dispositions in
    every worker — this test drives a live daemon through the exact
    sequence that used to hang.
    """

    @pytest.mark.parallel
    def test_second_pooled_request_completes(self, tiny_hg, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        env["REPRO_LEDGER"] = "off"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "2", "--drain-seconds", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=str(tmp_path), env=env, text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, f"no readiness line: {line!r}"
            port = int(line.rstrip().rsplit(":", 1)[1])
            # retries=0: if the wedge regresses, fail on the client
            # timeout instead of hanging through the retry budget.
            with ServiceClient("127.0.0.1", port, timeout=90,
                               retries=0) as client:
                # Distinct seeds so both requests execute a pooled
                # portfolio (no cache hit); the second is the one that
                # used to hang on the wedged pool teardown.
                for seed in (11, 12):
                    payload = client.partition(
                        _body(tiny_hg, seed=seed, runs=4))
                    assert payload["cached"] is False
                    assert len(payload["cuts"]) == 4
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, proc.stderr.read()


def _children(pid: int) -> set:
    """Live child pids of ``pid``, read from ``/proc``."""
    children = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.add(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads the process table from /proc")
class TestPooledDaemonLifecycle:
    """``repro serve --jobs 2`` forks one worker pool at its first
    executed request, serves every later request on it, and terminates
    it when it drains."""

    @pytest.mark.parallel
    def test_one_pool_for_the_daemon_and_none_after_sigterm(self,
                                                            tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC
        env["REPRO_LEDGER"] = "off"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "2", "--drain-seconds", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=str(tmp_path), env=env, text=True)
        workers = []
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, f"no readiness line: {line!r}"
            port = int(line.rstrip().rsplit(":", 1)[1])
            assert _children(proc.pid) == set()  # no fork at start-up
            with ServiceClient("127.0.0.1", port, timeout=90,
                               retries=0) as client:
                for seed in (1, 2):  # two fresh inline netlists
                    hg = hierarchical_circuit(150, 180, seed=seed,
                                              name=f"fresh{seed}")
                    payload = client.partition({
                        "netlist": {"inline": inline_netlist(hg)},
                        "algorithm": "mlc", "runs": 4, "seed": 3})
                    assert payload["cached"] is False
                    assert payload["statuses"] == {"ok": 4}
                    workers.append(_children(proc.pid))
            assert len(workers[0]) == 2
            assert workers[1] == workers[0]  # the same pool served both
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        _, stderr = proc.communicate(timeout=10)  # also closes the pipes
        assert proc.returncode == 0, stderr
        for pid in workers[0]:
            assert not Path(f"/proc/{pid}").exists(), \
                f"pool worker {pid} outlived the daemon"
        assert "Pool.__del__" not in stderr
        assert "Traceback" not in stderr
