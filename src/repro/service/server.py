"""The ``repro serve`` daemon: a hand-rolled asyncio HTTP/1.1 server.

No web framework — the protocol surface is six JSON endpoints and a
text scrape, small enough that :func:`asyncio.start_server` plus ~100
lines of request parsing beats a dependency.  Connections are
keep-alive (clients hammering the cache reuse their socket); bodies
are bounded; every response carries ``Content-Length``.

Endpoints
---------
* ``POST /partition`` — synchronous partition request (cache →
  coalesce → execute); body per
  :class:`~repro.service.protocol.PartitionRequest`.
* ``POST /sweep`` — ``{"requests": [...]}``; answers immediately with
  a job id, sub-requests run concurrently through the same pipeline
  (which is what lets the lane batch them).
* ``GET /jobs/<id>`` — job state/result; ``POST /jobs/<id>/cancel``.
* ``GET /metrics`` — Prometheus text exposition of the service
  registry (runtime metrics included: the registry is installed as
  the process-wide obs singleton while the server runs).
* ``GET /trace/<id>`` — download the trace of a ``"trace": true`` run.
* ``GET /healthz`` — liveness + engine diagnostics; 503 once draining.
* ``GET /version`` — package version + git SHA.

Overload protection
-------------------
The daemon prefers shedding to queueing: a full execution lane or job
table answers 429 with ``Retry-After``, a connection flood is refused
at the socket with 503, and slow or hostile clients (slowloris heads,
trickled bodies) are timed out with 408 without disturbing the accept
loop.  Per-request deadlines (``deadline_ms``, server default
``--deadline-ms``) bound queue wait + execution; see
:mod:`repro.service.engine` for the degradation ladder.

Shutdown
--------
SIGTERM/SIGINT trigger a graceful drain: stop accepting, fail queued
work with 503, wait for the in-flight portfolio (its ledger line is
written by the worker thread before the loop exits), then close.  A
second signal aborts immediately.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import secrets
import signal
import socket
import time
from typing import Dict, Iterator, Optional, Tuple

from ..obs import (JsonlSink, MetricsRegistry, SamplingProfiler,
                   enable_memory_profiling, get_logger, read_jsonl,
                   set_metrics, set_tracer, tracer)
from ..obs.metrics import SERVICE_BUCKETS
from ..solvers import DEFAULT_PORT
from .engine import ServiceEngine
from .jobs import (JOB_CANCELLED, JOB_DONE, JOB_FAILED, JOB_RUNNING,
                   JobTable, ServiceJob)
from .protocol import (HEADER_REQUEST_ID, HEADER_TRACE_ID,
                       PartitionRequest, ProtocolError)

_log = get_logger("service.server")

__all__ = ["PartitionServer", "DEFAULT_PORT", "read_access_log"]

#: Request line + headers cap.
_MAX_HEADER_BYTES = 16 * 1024
#: Request body cap (inline netlists are the big case).
_MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                408: "Request Timeout", 413: "Payload Too Large",
                429: "Too Many Requests", 500: "Internal Server Error",
                503: "Service Unavailable", 504: "Gateway Timeout"}


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader,
                        idle_timeout: Optional[float] = None,
                        read_timeout: Optional[float] = None,
                        max_body_bytes: int = _MAX_BODY_BYTES,
                        ) -> Optional[Tuple[float, str, str,
                                            Dict[str, str], bytes]]:
    """Parse one request; ``None`` on clean EOF (client went away).

    The first tuple element is a ``perf_counter`` stamp taken when the
    request's first byte arrived — the closest server-side moment to
    the client starting its stopwatch, so the latency histogram built
    on it includes head/body read time and stays comparable to
    client-side send-to-receive measurements.

    Two timers defend the accept loop against slow clients:
    ``idle_timeout`` bounds the wait for the *first* byte of a request
    — an idle keep-alive socket is closed silently (``None``), never
    sent a spurious 408 that would desync a pipelining client —
    while ``read_timeout`` bounds the rest of the head and the body,
    so a slowloris trickling one byte a minute gets 408 and is
    disconnected instead of pinning a connection slot forever.
    """
    # asyncio.timeout over wait_for: no wrapper task per read, which
    # keeps the cache-hit hot path at its pre-hardening latency.
    try:
        async with asyncio.timeout(idle_timeout):
            first = await reader.readexactly(1)
    except TimeoutError:
        return None  # idle keep-alive connection: close silently
    except asyncio.IncompleteReadError:
        return None  # clean EOF before a new request began
    arrived = time.perf_counter()
    try:
        async with asyncio.timeout(read_timeout):
            head = first + await reader.readuntil(b"\r\n\r\n")
    except TimeoutError:
        raise _HttpError(408, "timed out reading request head")
    except asyncio.IncompleteReadError:
        raise _HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large")
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        body_len = int(length)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length {length!r}")
    if body_len < 0 or body_len > max_body_bytes:
        raise _HttpError(413, f"body of {body_len} bytes exceeds limit")
    try:
        async with asyncio.timeout(read_timeout):
            body = await reader.readexactly(body_len) if body_len else b""
    except TimeoutError:
        raise _HttpError(408, "timed out reading request body")
    return arrived, method, target, headers, body


def _response(status: int, payload: bytes, content_type: str,
              keep_alive: bool,
              extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n")
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + payload


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


#: Characters allowed in client-supplied correlation IDs.  Anything
#: else is stripped before the ID is echoed into response headers (CRLF
#: injection), trace args, and the access log.
_ID_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "-_.:/@")
_MAX_ID_LEN = 120


def _sanitize_id(value: Optional[str]) -> Optional[str]:
    """A header-supplied ID reduced to its safe characters, or ``None``
    when nothing safe remains."""
    if not value:
        return None
    cleaned = "".join(ch for ch in value if ch in _ID_SAFE)[:_MAX_ID_LEN]
    return cleaned or None


def _clean_rows(rows: list) -> list:
    """Histogram summary rows with NaN quantiles (empty histograms)
    mapped to ``None`` so the ``/status`` body is strict JSON."""
    return [{k: (None if isinstance(v, float) and math.isnan(v) else v)
             for k, v in row.items()} for row in rows]


def read_access_log(path) -> Iterator[Dict[str, object]]:
    """Yield access-log records, oldest first — the same tolerant
    reading discipline as the run ledger (corrupt or truncated lines,
    including a final line cut short by ``kill -9``, are skipped with
    a warning)."""
    yield from read_jsonl(path, kind="access log")


class PartitionServer:
    """The long-lived serving process around a :class:`ServiceEngine`."""

    def __init__(self, engine: Optional[ServiceEngine] = None,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 drain_seconds: float = 30.0,
                 max_connections: Optional[int] = 128,
                 idle_timeout: Optional[float] = 300.0,
                 read_timeout: Optional[float] = 30.0,
                 max_body_bytes: int = _MAX_BODY_BYTES,
                 job_ttl: Optional[float] = 3600.0,
                 max_jobs: Optional[int] = 64,
                 trace_path: Optional[str] = None,
                 access_log_path: Optional[str] = None,
                 profile_dir: Optional[str] = None,
                 profile_interval: float = 0.01):
        self.engine = engine if engine is not None else ServiceEngine()
        self.host = host
        self.port = port
        self.drain_seconds = drain_seconds
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.read_timeout = read_timeout
        self.max_body_bytes = max_body_bytes
        self.jobs = JobTable(ttl_seconds=job_ttl, max_live=max_jobs)
        self.registry = MetricsRegistry()
        self.draining = False
        self.connections = 0
        self.connections_rejected = 0
        #: Daemon-lifetime trace file (``repro serve --trace``): unlike
        #: per-request ``"trace": true`` runs — which bypass cache,
        #: coalescing, and batching so their trace is honest — a
        #: server-wide tracer sees the *real* pipeline, so a coalesced
        #: burst shows one execution tree fanned out to N request spans.
        self.trace_path = trace_path
        self.access_log_path = access_log_path
        self.profile_dir = profile_dir
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler(interval_seconds=profile_interval)
            if profile_dir is not None else None)
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._previous_metrics = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._tracer: Optional[JsonlSink] = None
        self._previous_tracer = None
        self._access_file = None
        self._request_seq = itertools.count(1)
        #: endpoint -> bound ``Histogram.observe``, so the per-request
        #: hot path skips the registry's family/label-key lookups.
        self._latency_observers: Dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start serving (non-blocking).

        With ``port=0`` the OS picks a free port; ``self.port`` is
        updated to the bound one.
        """
        self._previous_metrics = set_metrics(self.registry)
        if self.trace_path is not None:
            self._tracer = JsonlSink(self.trace_path, timeline=True)
            self._previous_tracer = set_tracer(self._tracer)
        if self.access_log_path is not None:
            parent = os.path.dirname(str(self.access_log_path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            # Line-buffered append: whole records hit disk per request,
            # so a killed daemon loses at most one (truncated) line —
            # exactly the case read_access_log tolerates.
            self._access_file = open(self.access_log_path, "a",
                                     encoding="utf-8", buffering=1)
        if self.profiler is not None:
            os.makedirs(self.profile_dir, exist_ok=True)
            enable_memory_profiling(True)
            self.profiler.start()
        self.engine.start()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            limit=_MAX_HEADER_BYTES)
        bound = [s for s in self._server.sockets
                 if s.family in (socket.AF_INET, socket.AF_INET6)]
        if bound:
            self.port = bound[0].getsockname()[1]
        _log.info("serving on http://%s:%d", self.host, self.port)

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Block until a signal (or :meth:`request_shutdown`), then
        drain gracefully."""
        assert self._shutdown_event is not None, "call start() first"
        if install_signals:
            self.install_signal_handlers()
        await self._shutdown_event.wait()
        await self.shutdown()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # e.g. non-main thread; rely on KeyboardInterrupt

    def request_shutdown(self) -> None:
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish the in-flight
        portfolio (so its ledger line is complete), then close."""
        if self.draining:
            return
        self.draining = True
        _log.info("draining: refusing new requests")
        if self._server is not None:
            self._server.close()
        for job in self.jobs.values():
            if job.state in (JOB_RUNNING,) and job.task is not None:
                job.task.cancel()
        quiet = await self.engine.drain(self.drain_seconds)
        if not quiet:
            _log.warning("drain timed out after %gs with a portfolio "
                         "still executing", self.drain_seconds)
        if self._server is not None:
            await self._server.wait_closed()
        if self.profiler is not None:
            self.profiler.stop()
            enable_memory_profiling(False)
            try:
                final = os.path.join(self.profile_dir, "profile.collapsed")
                self.profiler.write(final)
                _log.info("wrote final profile to %s", final)
            except OSError as exc:
                _log.warning("could not write final profile: %s", exc)
        if self._tracer is not None:
            set_tracer(self._previous_tracer)
            self._tracer.close()
            self._tracer = None
        if self._access_file is not None:
            try:
                self._access_file.close()
            except OSError:
                pass
            self._access_file = None
        set_metrics(self._previous_metrics)
        _log.info("shutdown complete")

    async def run(self) -> None:
        """``start()`` + signal handlers + readiness line +
        ``serve_forever()`` — the ``repro serve`` entry point.

        The handlers go in before the readiness line: a supervisor may
        send SIGTERM the moment it reads that line, and the signal must
        find the graceful drain, not the default (fatal) disposition.
        """
        await self.start()
        self.install_signal_handlers()
        # The readiness line is machine-read (tests, benchmarks, CI
        # smoke): keep the format stable.
        print(f"repro-serve listening on http://{self.host}:{self.port}",
              flush=True)
        await self.serve_forever(install_signals=False)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self.max_connections is not None and \
                self.connections >= self.max_connections:
            # Admission control at the socket: refuse before parsing so
            # a connection flood cannot starve established clients.
            self.connections_rejected += 1
            try:
                writer.write(_response(
                    503, _json_bytes({"error": "connection limit "
                                      f"({self.max_connections}) reached"}),
                    "application/json", keep_alive=False,
                    extra_headers={"Retry-After": "1"}))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                writer.close()
            return
        self.connections += 1
        try:
            while True:
                try:
                    parsed = await _read_request(
                        reader, idle_timeout=self.idle_timeout,
                        read_timeout=self.read_timeout,
                        max_body_bytes=self.max_body_bytes)
                except asyncio.CancelledError:
                    # Shutdown cancelled a keep-alive connection idle
                    # between requests: close it like a clean EOF.
                    return
                except _HttpError as exc:
                    writer.write(_response(
                        exc.status, _json_bytes({"error": str(exc)}),
                        "application/json", keep_alive=False))
                    await writer.drain()
                    return
                if parsed is None:
                    return
                # Admission: the clock starts at the request's first
                # byte, so the histogram below measures first-byte to
                # drained-response — the closest server-side analogue
                # of a client's send-to-receive stopwatch, which is
                # what lets bench_service.py cross-check the quantiles.
                admitted, method, target, headers, body = parsed
                request_id = _sanitize_id(
                    headers.get(HEADER_REQUEST_ID.lower())) \
                    or self._new_request_id()
                trace_id = _sanitize_id(
                    headers.get(HEADER_TRACE_ID.lower())) or request_id
                status, payload, content_type, extra, info = \
                    await self._dispatch(method, target, body,
                                         request_id, trace_id)
                extra = dict(extra or {})
                extra[HEADER_REQUEST_ID] = request_id
                extra[HEADER_TRACE_ID] = trace_id
                keep_alive = headers.get("connection", "").lower() != \
                    "close" and not self.draining
                writer.write(_response(status, payload, content_type,
                                       keep_alive, extra_headers=extra))
                await writer.drain()
                latency = time.perf_counter() - admitted
                path = target.split("?", 1)[0]
                endpoint = path.split("/", 2)[1] if "/" in path else ""
                observe = self._latency_observers.get(endpoint)
                if observe is None:
                    observe = self.registry.histogram(
                        "repro_service_latency_seconds",
                        "Admission-to-response latency (first request "
                        "byte to response drained), by endpoint.",
                        buckets=SERVICE_BUCKETS,
                        endpoint=endpoint or "root").observe
                    self._latency_observers[endpoint] = observe
                observe(latency)
                self._log_access(request_id, trace_id, method, path,
                                 status, latency, info)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self.connections -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _new_request_id(self) -> str:
        return f"q{next(self._request_seq):06d}-{secrets.token_hex(3)}"

    async def _dispatch(self, method: str, target: str, body: bytes,
                        request_id: str, trace_id: str
                        ) -> Tuple[int, bytes, str,
                                   Optional[Dict[str, str]],
                                   Dict[str, object]]:
        path = target.split("?", 1)[0]
        started = time.perf_counter()
        endpoint = path.split("/", 2)[1] if "/" in path else ""
        extra: Optional[Dict[str, str]] = None
        # Endpoints deposit correlation facts here (exec_id, cache
        # hit/miss, ...) for the root span and the access log.
        info: Dict[str, object] = {}
        tr = tracer()
        t0 = tr.begin() if tr.enabled else 0
        try:
            status, payload, content_type = await self._route(
                method, path, body, request_id, trace_id, info)
        except ProtocolError as exc:
            status = exc.status
            payload = _json_bytes({"error": str(exc)})
            content_type = "application/json"
            if exc.retry_after is not None:
                # Load-shedding responses tell the client when to come
                # back; see ServiceClient's 429 handling.
                extra = {"Retry-After":
                         str(max(1, int(round(exc.retry_after))))}
        except Exception as exc:  # never kill the connection loop
            _log.exception("unhandled error serving %s %s", method, path)
            status = 500
            payload = _json_bytes({"error": f"internal error: {exc}"})
            content_type = "application/json"
        if tr.enabled:
            # The per-request root span.  Args are explicit — never
            # trace_scope here: this coroutine interleaves with other
            # requests on the event loop, and a thread-local scope held
            # across an await would stamp their spans too.
            args: Dict[str, object] = {
                "request_id": request_id, "trace_id": trace_id,
                "method": method, "endpoint": endpoint or "root",
                "status": status}
            for key in ("exec_id", "cached", "coalesced", "degraded"):
                if key in info:
                    args[key] = info[key]
            tr.end("service.request", t0, args)
        self.registry.counter(
            "repro_service_requests_total",
            "HTTP requests served, by endpoint and status code.",
            endpoint=endpoint or "root", code=str(status)).inc()
        self.registry.histogram(
            "repro_service_request_seconds",
            "Request handling latency, by endpoint.",
            endpoint=endpoint or "root"
        ).observe(time.perf_counter() - started)
        return status, payload, content_type, extra, info

    async def _route(self, method: str, path: str, body: bytes,
                     request_id: str, trace_id: str,
                     info: Dict[str, object]) -> Tuple[int, bytes, str]:
        if path == "/healthz":
            return self._healthz(method)
        if path == "/version":
            self._expect(method, "GET")
            from ..obs import git_sha
            from .. import __version__
            return 200, _json_bytes({
                "name": "repro", "version": __version__,
                "git_sha": git_sha(),
            }), "application/json"
        if path == "/metrics":
            self._expect(method, "GET")
            return 200, self._render_metrics(), \
                "text/plain; version=0.0.4; charset=utf-8"
        if path == "/status":
            self._expect(method, "GET")
            return self._status()
        if path == "/profile":
            self._expect(method, "GET")
            return self._profile()
        if path == "/partition":
            self._expect(method, "POST")
            return await self._partition(body, request_id, trace_id, info)
        if path == "/sweep":
            self._expect(method, "POST")
            return await self._sweep(body, request_id, trace_id)
        if path.startswith("/jobs/"):
            return await self._jobs_endpoint(method, path)
        channel, _, run_id = path[1:].partition("/")
        if channel in ("trace", "record") and run_id:
            self._expect(method, "GET")
            data = self.engine.spooled_file(channel, run_id).read_bytes()
            return 200, data, "application/jsonl"
        raise ProtocolError(f"no such endpoint {path!r}", status=404)

    @staticmethod
    def _expect(method: str, expected: str) -> None:
        if method != expected:
            raise ProtocolError(f"method {method} not allowed "
                                f"(use {expected})", status=405)

    def _healthz(self, method: str) -> Tuple[int, bytes, str]:
        self._expect(method, "GET")
        status = 503 if self.draining else 200
        return status, _json_bytes({
            "status": "draining" if self.draining else "ok",
            **self.engine.stats(),
            "jobs_live": self.jobs.live(),
            "jobs": self.jobs.stats(),
            "connections": self.connections,
            "connections_rejected": self.connections_rejected,
        }), "application/json"

    def _status(self) -> Tuple[int, bytes, str]:
        """``GET /status`` — the ops-console snapshot: everything
        ``/healthz`` reports plus the live in-flight request table
        (with ages and trace IDs), latency histogram summaries, and
        profiler state.  JSON so ``repro top`` needs one poll."""
        latency = {
            name.split("repro_service_", 1)[1].rsplit("_seconds", 1)[0]:
                _clean_rows(self.registry.histogram_summaries(name))
            for name in ("repro_service_latency_seconds",
                         "repro_service_queue_wait_seconds",
                         "repro_service_execution_seconds")}
        profiler: Dict[str, object] = {"enabled": self.profiler is not None}
        if self.profiler is not None:
            profiler.update(self.profiler.stats())
        return 200, _json_bytes({
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            **self.engine.status(),
            "jobs_live": self.jobs.live(),
            "jobs": self.jobs.stats(),
            "connections": self.connections,
            "connections_rejected": self.connections_rejected,
            "latency": latency,
            "profiler": profiler,
            "tracing": self.trace_path is not None,
            "access_log": self.access_log_path is not None,
        }), "application/json"

    def _profile(self) -> Tuple[int, bytes, str]:
        """``GET /profile`` — the wall profile so far, collapsed-stack
        format (feed straight to a flamegraph renderer).  404 unless
        the daemon was started with ``--profile-dir``."""
        if self.profiler is None:
            raise ProtocolError(
                "profiling is disabled (start with --profile-dir)",
                status=404)
        return 200, self.profiler.collapsed().encode("utf-8"), \
            "text/plain; charset=utf-8"

    def _log_access(self, request_id: str, trace_id: str, method: str,
                    path: str, status: int, latency: float,
                    info: Dict[str, object]) -> None:
        """Append one JSONL access-log record; never raises (a full
        disk costs a warning, not the response)."""
        if self._access_file is None:
            return
        record: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "request_id": request_id,
            "trace_id": trace_id,
            "method": method,
            "route": path,
            "status": status,
            "latency_ms": round(latency * 1000.0, 3),
        }
        for key in ("exec_id", "cached", "coalesced", "degraded"):
            if key in info:
                record[key] = info[key]
        try:
            self._access_file.write(
                json.dumps(record, sort_keys=True,
                           separators=(",", ":")) + "\n")
        except (OSError, ValueError) as exc:
            _log.warning("could not write access log record: %s", exc)

    def _render_metrics(self) -> bytes:
        self.engine.export_metrics(self.registry)
        job_stats = self.jobs.stats()
        self.registry.gauge("repro_service_jobs_live",
                            "Live (queued or running) jobs."
                            ).set(float(job_stats["live"]))
        self.registry.counter("repro_service_job_evictions_total",
                              "Finished jobs evicted by TTL or history "
                              "bound.").value = float(job_stats["evictions"])
        self.registry.gauge("repro_service_connections",
                            "Open client connections."
                            ).set(float(self.connections))
        self.registry.counter("repro_service_connections_rejected_total",
                              "Connections refused at the connection "
                              "limit.").value = \
            float(self.connections_rejected)
        # The lane's worker thread appends runtime metrics while we
        # render; a mid-iteration insert is rare but possible.
        for _ in range(3):
            try:
                return self.registry.render_prometheus().encode("utf-8")
            except RuntimeError:
                continue
        return b"# metrics temporarily unavailable\n"

    # -- request endpoints ---------------------------------------------

    def _parse_body(self, body: bytes) -> object:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")

    async def _partition(self, body: bytes, request_id: str,
                         trace_id: str, info: Dict[str, object]
                         ) -> Tuple[int, bytes, str]:
        if self.draining:
            raise ProtocolError("server is shutting down", status=503,
                                retry_after=self.drain_seconds)
        request = PartitionRequest.from_json(self._parse_body(body))
        payload = await self.engine.serve(request, request_id=request_id,
                                          trace_id=trace_id)
        # Echo the correlation IDs in the body (the headers carry them
        # too) and surface the execution identity to the root span and
        # access log: payload["id"] is the PendingRun that produced
        # this answer — shared by every coalesced/cached request it
        # served, which is what ties N request spans to one tree.
        payload["request_id"] = request_id
        payload["trace_id"] = trace_id
        info["exec_id"] = payload.get("id")
        for key in ("cached", "coalesced", "degraded"):
            if key in payload:
                info[key] = payload[key]
        return 200, _json_bytes(payload), "application/json"

    async def _sweep(self, body: bytes, request_id: str,
                     trace_id: str) -> Tuple[int, bytes, str]:
        if self.draining:
            raise ProtocolError("server is shutting down", status=503,
                                retry_after=self.drain_seconds)
        data = self._parse_body(body)
        if not isinstance(data, dict) or "requests" not in data:
            raise ProtocolError(
                "sweep body must be {\"requests\": [...]}")
        items = data["requests"]
        if not isinstance(items, list) or not items:
            raise ProtocolError("sweep 'requests' must be a non-empty list")
        if len(items) > 10_000:
            raise ProtocolError("sweep is limited to 10000 requests")
        requests = [PartitionRequest.from_json(item) for item in items]
        job = self.jobs.create("sweep", total=len(requests))
        job.task = asyncio.get_running_loop().create_task(
            self._run_sweep(job, requests, request_id, trace_id))
        return 202, _json_bytes({"job_id": job.id, "state": job.state,
                                 "total": job.total,
                                 "request_id": request_id,
                                 "trace_id": trace_id}), "application/json"

    async def _run_sweep(self, job: ServiceJob, requests: list,
                         request_id: str, trace_id: str) -> None:
        job.state = JOB_RUNNING
        job.started = time.time()

        async def one(request: PartitionRequest) -> dict:
            try:
                # Sub-requests inherit the sweep's trace_id: the whole
                # sweep regroups as one tree in a merged trace.
                payload = await self.engine.serve(
                    request, request_id=request_id, trace_id=trace_id)
            except ProtocolError as exc:
                payload = {"error": str(exc), "status": exc.status}
            job.done += 1
            return payload

        try:
            # Concurrent submission is deliberate: simultaneous
            # same-netlist sub-requests are what the lane batches.
            results = await asyncio.gather(*(one(r) for r in requests))
            job.result = {"results": list(results)}
            job.state = JOB_DONE
        except asyncio.CancelledError:
            job.state = JOB_CANCELLED
            job.error = "cancelled"
        except Exception as exc:
            job.state = JOB_FAILED
            job.error = str(exc)
            _log.exception("sweep job %s failed", job.id)
        finally:
            job.finished = time.time()

    async def _jobs_endpoint(self, method: str,
                             path: str) -> Tuple[int, bytes, str]:
        rest = path[len("/jobs/"):]
        if rest.endswith("/cancel"):
            self._expect(method, "POST")
            job = self.jobs.cancel(rest[:-len("/cancel")])
        else:
            self._expect(method, "GET")
            job = self.jobs.get(rest)
        return 200, _json_bytes(job.describe()), "application/json"
