"""The service engine: caches, coalescing, batching, and execution.

This is where the daemon composes the existing subsystems into one
serving pipeline::

    request ──► result cache ──► coalescer ──► execution lane ──► runtime
                  (hit: copy)     (dup: await    (batch + thread)   (ledger)
                                   leader)

* The **result cache** (:class:`~repro.service.cache.ResultCache`)
  returns finished payloads for repeated request keys without touching
  the runtime at all.
* The **coalescer** collapses concurrent identical requests into one
  execution.
* The **execution lane** is a single consumer draining a pending list
  through one worker thread.  One portfolio executes at a time — the
  runtime's process-pool plumbing and the obs singletons are
  process-wide, so the lane is what makes them safe under a concurrent
  server — and while the lane is busy, the event loop keeps answering
  cache hits, health checks, and metric scrapes.  Every execution runs
  on the one executor the engine resolves at construction: with
  ``jobs > 1`` that is one worker pool for the daemon's lifetime,
  forked at the first executed request and closed when the daemon
  drains.  Each request's portfolio is pickled once to the live pool
  (a portfolio that does not pickle gets a freshly forked pool that
  inherits it), and a timed-out or deadline-killed run discards the
  pool so the next request forks a clean one.
* **Batching**: when the consumer pops a request, it also takes every
  queued request with the same (netlist, config) — different seeds
  welcome — and merges their child-seed streams into one
  :class:`~repro.runtime.BatchPortfolio`.  Records are split back per
  request afterwards, re-indexed from zero, so each request's result —
  and its ledger entry — is byte-identical to a standalone CLI run of
  the same (netlist, config, seed).
* Same-netlist requests share one parsed :class:`Hypergraph` via the
  netlist cache, which is also what lets ``ml-reuse`` requests share a
  single :class:`~repro.runtime.HierarchyCache` entry (the hierarchy
  cache keys on ``id(hg)``): many seeds, one coarsening.

Everything the engine executes lands in the run ledger exactly like a
CLI run — the service is a front-end to the runtime, not a fork of it.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import secrets
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import get_logger, metrics, record_result, trace_scope, tracer
from ..obs.metrics import SERVICE_BUCKETS
from ..partition import BalanceConstraint
from ..rng import child_seeds
from ..runtime import (BatchPortfolio, Job, Portfolio, PortfolioResult,
                       HierarchyCache, STATUS_TIMEOUT, execute,
                       get_executor, ml_reuse_algorithm)
from ..solvers import build_algorithm, ml_config_for
from .breaker import CircuitBreaker, PLAN_DEGRADED
from .cache import NetlistCache, ResultCache
from .coalescer import Coalescer
from .protocol import (PartitionRequest, ProtocolError, SCHEMA_VERSION,
                       canonical_json)

_log = get_logger("service.engine")

__all__ = ["ServiceEngine", "PendingRun", "ExecutionLane",
           "DEADLINE_GRACE_SECONDS"]

#: Counter names the engine tracks (and exports as
#: ``repro_service_<name>_total``).
_COUNTERS = ("requests", "cache_hits", "cache_misses", "coalesced",
             "executed_portfolios", "executed_starts", "batched_requests",
             "errors", "deadline_expired", "degraded_served")

#: The documented grace window on top of a request's deadline: the
#: event loop abandons waiting on a response ``deadline + grace`` after
#: admission and answers 504, regardless of what the execution lane is
#: doing.  The window absorbs the collector's poll granularity, pool
#: teardown after a deadline kill, and payload/ledger bookkeeping —
#: no request ever observes a response later than this.
DEADLINE_GRACE_SECONDS = 0.75

#: Floor handed to the runtime as a portfolio deadline, so a request
#: admitted with microseconds to spare still gets a well-formed
#: (instantly-expiring) portfolio instead of a ConfigError.
_MIN_PORTFOLIO_DEADLINE = 0.05


@dataclass
class PendingRun:
    """One request waiting on (or executing in) the lane."""

    id: str
    request: PartitionRequest
    key: str
    future: asyncio.Future
    #: Requests sharing a batch key may merge; ``None`` opts out
    #: (traced requests need their own portfolio).
    batch_key: Optional[str] = None
    #: Spool files of the request's own trace and decision recording
    #: (``GET /trace/<id>``, ``GET /record/<id>``), keyed by channel;
    #: set only for runs that bypass cache/batching so the files cover
    #: a real execution.
    spool: Dict[str, str] = field(default_factory=dict)
    queued_at: float = field(default_factory=time.monotonic)
    #: Absolute monotonic instant past which this request's answer is
    #: worthless; ``None`` means no deadline.
    deadline_at: Optional[float] = None
    #: Correlation IDs from the originating HTTP request (client-
    #: supplied or server-generated); ``None`` when the engine is used
    #: without the HTTP front-end, in which case the run id stands in.
    trace_id: Optional[str] = None
    request_id: Optional[str] = None

    @property
    def effective_trace_id(self) -> str:
        """The ID stamped into spans and the ledger for this run."""
        return self.trace_id if self.trace_id is not None else self.id

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at


class ExecutionLane:
    """Single-consumer execution queue with same-group batching,
    bounded admission, and queue-expiry sweeping.

    ``max_queued`` is the load-shedding watermark: a submit that finds
    the queue full is refused with HTTP 429 and a ``Retry-After`` hint
    derived from an EWMA of recent batch execution times, instead of
    building an unbounded backlog whose tail can never meet any
    deadline.  Queued runs whose deadline lapses before the consumer
    reaches them are failed with 504 without ever touching the runtime.

    The runner returns one entry per batch member, each either a
    payload dict or an :class:`Exception` — so one member's failure
    (e.g. every start timed out for *its* deadline) never poisons its
    batch mates.
    """

    def __init__(self, runner: Callable[[List[PendingRun]], List[object]],
                 max_queued: Optional[int] = None):
        if max_queued is not None and max_queued < 1:
            raise ProtocolError(
                f"max_queued must be >= 1, got {max_queued}", status=500)
        self._runner = runner
        self.max_queued = max_queued
        self._pending: List[PendingRun] = []
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._busy = False
        #: The batch currently on the worker thread (empty when idle);
        #: read by ``in_flight`` for the ops surfaces.  Mutated only on
        #: the event loop, so ``/status`` handlers see it consistently.
        self.executing: List[PendingRun] = []
        self.draining = False
        #: Load-shedding / expiry counters, read by the engine's stats.
        self.shed = 0
        self.expired = 0
        #: EWMA of batch execution wall time, seeding ``Retry-After``.
        self.exec_ewma: Optional[float] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._consume(), name="repro-service-lane")

    @property
    def queued(self) -> int:
        return len(self._pending)

    @property
    def busy(self) -> bool:
        return self._busy

    def retry_after(self) -> float:
        """Seconds a shed client should wait: roughly one queue's worth
        of work at the recent per-batch execution rate."""
        per_batch = self.exec_ewma if self.exec_ewma is not None else 1.0
        backlog = len(self._pending) + (1 if self._busy else 0)
        return max(1.0, round(per_batch * max(1, backlog), 1))

    def _sweep_expired(self) -> None:
        now = time.monotonic()
        lapsed = [r for r in self._pending if r.expired(now)]
        for run in lapsed:
            self._pending.remove(run)
            self.expired += 1
            if not run.future.done():
                run.future.set_exception(ProtocolError(
                    "deadline expired while queued", status=504))

    async def submit(self, run: PendingRun) -> dict:
        if self.draining:
            raise ProtocolError("server is shutting down", status=503)
        self._sweep_expired()
        if self.max_queued is not None and \
                len(self._pending) >= self.max_queued:
            self.shed += 1
            raise ProtocolError(
                f"execution queue is full ({len(self._pending)} queued, "
                f"limit {self.max_queued}); retry later",
                status=429, retry_after=self.retry_after())
        self._pending.append(run)
        self._wake.set()
        return await run.future

    async def _consume(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._pending:
                self._sweep_expired()
                if not self._pending:
                    break
                head = self._pending.pop(0)
                batch = [head]
                if head.batch_key is not None:
                    mates = [r for r in self._pending
                             if r.batch_key == head.batch_key]
                    for mate in mates:
                        self._pending.remove(mate)
                    batch.extend(mates)
                batch = [r for r in batch if not r.future.done()]
                if not batch:
                    continue
                self._busy = True
                self.executing = list(batch)
                begun = time.monotonic()
                try:
                    payloads = await asyncio.to_thread(self._runner, batch)
                    for run, payload in zip(batch, payloads):
                        if run.future.done():
                            continue
                        if isinstance(payload, Exception):
                            run.future.set_exception(payload)
                        else:
                            run.future.set_result(payload)
                except Exception as exc:
                    for run in batch:
                        if not run.future.done():
                            run.future.set_exception(exc)
                finally:
                    self._busy = False
                    self.executing = []
                    elapsed = time.monotonic() - begun
                    self.exec_ewma = (
                        elapsed if self.exec_ewma is None
                        else 0.3 * elapsed + 0.7 * self.exec_ewma)

    def in_flight(self) -> List[Dict[str, object]]:
        """Every request on the lane right now — executing batch first,
        then the queue in arrival order — with age and correlation IDs,
        the ``/status`` in-flight table."""
        now = time.monotonic()
        rows: List[Dict[str, object]] = []
        for state, runs in (("executing", self.executing),
                            ("queued", self._pending)):
            for run in runs:
                rows.append({
                    "id": run.id,
                    "trace_id": run.effective_trace_id,
                    "request_id": run.request_id,
                    "state": state,
                    "age_seconds": round(now - run.queued_at, 3),
                    "deadline_in_seconds": (
                        None if run.deadline_at is None
                        else round(run.deadline_at - now, 3)),
                })
        return rows

    async def drain(self, timeout: float = 30.0) -> bool:
        """Refuse new work, fail queued runs, wait out the in-flight
        one.  Returns ``True`` when the lane went quiet in time."""
        self.draining = True
        for run in self._pending:
            if not run.future.done():
                run.future.set_exception(
                    ProtocolError("server is shutting down", status=503))
        self._pending.clear()
        deadline = time.monotonic() + timeout
        while self._busy and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        quiet = not self._busy
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None
        return quiet


class ServiceEngine:
    """Caches + coalescer + lane, bound to the portfolio runtime."""

    def __init__(self, jobs: int = 1, result_entries: int = 256,
                 netlist_entries: int = 32, hierarchy_entries: int = 8,
                 spool_dir: Optional[str] = None,
                 default_deadline_ms: Optional[int] = 300_000,
                 max_queued: Optional[int] = 32,
                 breaker_failures: int = 3,
                 breaker_cooldown: float = 30.0,
                 retries: int = 0,
                 faults=None):
        self.jobs = jobs
        #: The one executor every full execution runs on; its pool (if
        #: any) is forked lazily and closed by :meth:`drain`.
        self.executor = get_executor(jobs)
        if default_deadline_ms is not None and default_deadline_ms < 1:
            raise ProtocolError(
                f"default_deadline_ms must be >= 1, "
                f"got {default_deadline_ms}", status=500)
        self.default_deadline_ms = default_deadline_ms
        self.retries = retries
        #: An armed :class:`~repro.faults.FaultPlan` applied to every
        #: executed portfolio — the service-level chaos hook.
        self.faults = faults
        self.results = ResultCache(result_entries)
        self.netlists = NetlistCache(netlist_entries)
        self.hierarchies = HierarchyCache(hierarchy_entries)
        self.coalescer = Coalescer()
        self.lane = ExecutionLane(self._run_batch_sync,
                                  max_queued=max_queued)
        self.breaker = CircuitBreaker(failure_threshold=breaker_failures,
                                      cooldown_seconds=breaker_cooldown)
        self.started_at = time.time()
        self._spool_dir = spool_dir
        #: ``(channel, run id)`` -> spooled trace/recording file.
        self._spooled: Dict[Tuple[str, str], str] = {}
        self._ids = itertools.count(1)
        self._counters = {name: 0 for name in _COUNTERS}
        self._counter_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the lane's consumer (call from the running loop)."""
        self.lane.start()

    async def drain(self, timeout: float = 30.0) -> bool:
        """Drain the lane, then close the executor — terminating its
        worker pool, so the daemon leaves no worker process behind."""
        quiet = await self.lane.drain(timeout)
        self.executor.close()
        return quiet

    # -- serving -------------------------------------------------------

    async def serve(self, request: PartitionRequest,
                    request_id: Optional[str] = None,
                    trace_id: Optional[str] = None) -> dict:
        """Serve one partition request through cache → coalescer →
        lane.  Returns a fresh payload dict the caller may annotate.

        ``request_id``/``trace_id`` are the HTTP front-end's
        correlation IDs; when this request executes (rather than
        hitting the cache or coalescing onto a leader), they ride the
        :class:`PendingRun` onto the portfolio, so every span of the
        execution and its ledger entry carry the trace ID.

        The request's deadline (``deadline_ms`` or the server default)
        is fixed here, at admission: it bounds queue wait + execution,
        and :meth:`_with_deadline` guarantees the caller gets *some*
        answer — a result, a degraded partial, or a 504 — within
        ``deadline + DEADLINE_GRACE_SECONDS``.
        """
        self._count("requests")
        deadline_ms = (request.deadline_ms if request.deadline_ms is not None
                       else self.default_deadline_ms)
        deadline_at = (None if deadline_ms is None
                       else time.monotonic() + deadline_ms / 1000.0)
        key = request.request_key()
        if request.trace or request.record:
            # Traced/recorded requests always execute (the telemetry
            # file is the point) and never join a batch or populate
            # the cache.
            out = dict(await self._with_deadline(
                self._submit(request, key, deadline_at, traced=True,
                             request_id=request_id, trace_id=trace_id),
                deadline_at))
        else:
            cached = self.results.get(key)
            if cached is not None:
                self._count("cache_hits")
                out = dict(cached)
                out["cached"] = True
                return self._finish(out, request, deadline_ms)
            self._count("cache_misses")

            async def factory() -> dict:
                payload = await self._submit(request, key, deadline_at,
                                             request_id=request_id,
                                             trace_id=trace_id)
                if not payload.get("degraded"):
                    # Degraded payloads (deadline partials, breaker
                    # fallbacks) are point-in-time answers — caching
                    # them would serve a worse cut than the full
                    # portfolio to every later client, and is also why
                    # ``deadline_ms`` can stay out of the request key.
                    self.results.put(key, payload)
                return payload

            async def coalesced() -> dict:
                # The inflight check must share a task body with
                # ``run`` (ensure_future defers both to the same loop
                # tick), or followers would race the leader's
                # registration and miscount.
                piggyback = self.coalescer.inflight(key)
                if piggyback:
                    self._count("coalesced")
                else:
                    # This body runs a loop tick after the
                    # admission-time cache check; a leader can finish
                    # in that gap — result cached, in-flight entry
                    # gone — so re-check before electing ourselves the
                    # new leader and re-executing the same key.
                    done = self.results.get(key)
                    if done is not None:
                        self._count("cache_hits")
                        late = dict(done)
                        late["cached"] = True
                        late["coalesced"] = False
                        return late
                payload = dict(await self.coalescer.run(key, factory))
                payload["coalesced"] = piggyback
                return payload

            out = dict(await self._with_deadline(coalesced(), deadline_at))
            out.setdefault("cached", False)
        return self._finish(out, request, deadline_ms)

    async def _with_deadline(self, awaitable, deadline_at) -> dict:
        """Await ``awaitable``, but never past ``deadline_at`` plus the
        grace window.  The underlying work is shielded — a coalesced
        leader keeps running for its followers and still populates the
        cache — only *this* waiter gives up and answers 504."""
        task = asyncio.ensure_future(awaitable)
        if deadline_at is None:
            return await task
        remaining = deadline_at - time.monotonic() + DEADLINE_GRACE_SECONDS
        try:
            return await asyncio.wait_for(asyncio.shield(task),
                                          max(remaining, 0.001))
        except asyncio.TimeoutError:
            self._count("deadline_expired")
            # Retrieve the orphaned task's eventual exception so it
            # never surfaces as an "exception was never retrieved" log.
            task.add_done_callback(
                lambda t: t.exception() if not t.cancelled() else None)
            raise ProtocolError(
                "deadline exhausted before a response was ready",
                status=504) from None

    def _finish(self, out: dict, request: PartitionRequest,
                deadline_ms: Optional[int]) -> dict:
        # Payloads carry the best assignment internally (so a cache
        # entry can satisfy either answer shape); ``include_assignment``
        # is honored per request, not per cache entry — it is
        # deliberately absent from the request key, as is the deadline:
        # any *complete* (non-degraded) result is deadline-independent.
        if not request.include_assignment:
            out.pop("assignment", None)
        if deadline_ms is not None:
            out["deadline_ms"] = deadline_ms
        return out

    async def _submit(self, request: PartitionRequest, key: str,
                      deadline_at: Optional[float] = None,
                      traced: bool = False,
                      request_id: Optional[str] = None,
                      trace_id: Optional[str] = None) -> dict:
        run_id = f"r{next(self._ids):06d}-{secrets.token_hex(3)}"
        run = PendingRun(
            id=run_id, request=request, key=key,
            future=asyncio.get_running_loop().create_future(),
            batch_key=None if traced else request.batch_key(),
            spool={channel: self._spool_path(channel, run_id)
                   for channel, wanted in (("trace", request.trace),
                                           ("record", request.record))
                   if traced and wanted},
            deadline_at=deadline_at,
            request_id=request_id, trace_id=trace_id)
        return await self.lane.submit(run)

    # -- execution (lane worker thread) --------------------------------

    def _run_batch_sync(self, batch: List[PendingRun]) -> List[object]:
        """Execute a batch of same-(netlist, config) requests.

        Runs on the lane's worker thread — the only place the engine
        touches the portfolio runtime.  The telemetry wrapper around
        :meth:`_run_batch_inner`: records each member's queue wait and
        the batch's execution wall in the service histograms, and wraps
        the whole invocation in one ``service.execute`` span carrying
        the lead run's IDs — the execution tree every request-scoped
        root span references by ``exec_id``.  The trace scope is
        installed on this worker thread (synchronous code, so unlike
        the event loop it cannot interleave requests), which is how
        parent-side collector events pick up the IDs.
        """
        head = batch[0]
        mx = metrics()
        tr = tracer()
        if mx.enabled:
            now = time.monotonic()
            for run in batch:
                mx.histogram(
                    "repro_service_queue_wait_seconds",
                    "Time a request spent queued on the execution lane.",
                    buckets=SERVICE_BUCKETS,
                ).observe(max(0.0, now - run.queued_at))
        t_exec = tr.begin() if tr.enabled else 0
        begun = time.perf_counter()
        outcome = "error"
        try:
            with trace_scope(trace_id=head.effective_trace_id,
                             exec_id=head.id):
                payloads = self._run_batch_inner(batch)
            outcome = "ok"
            return payloads
        finally:
            elapsed = time.perf_counter() - begun
            if tr.enabled:
                tr.end("service.execute", t_exec, {
                    "exec_id": head.id,
                    "trace_id": head.effective_trace_id,
                    "batch": len(batch),
                    "requests": [run.id for run in batch],
                    "netlist": head.request.netlist.kind,
                    "outcome": outcome})
            if mx.enabled:
                mx.histogram(
                    "repro_service_execution_seconds",
                    "Wall time of one execution-lane batch.",
                    buckets=SERVICE_BUCKETS).observe(elapsed)

    def _run_batch_inner(self, batch: List[PendingRun]) -> List[object]:
        """The uninstrumented batch body: breaker plan, netlist
        resolution, single/degraded/merged execution.  Returns one
        payload *or exception* per batch member; a whole-batch failure
        is fanned out as one exception per member.  Consults the
        per-netlist circuit breaker first and records the execution's
        health after, so a netlist that keeps crashing or timing out
        stops occupying the lane with full portfolios.
        """
        request0 = batch[0].request
        netlist_key = canonical_json(request0.netlist.key)
        plan = self.breaker.plan(netlist_key)
        try:
            hg = self.netlists.resolve(netlist_key, request0.netlist.load)
            if plan == PLAN_DEGRADED:
                return [self._guarded(self._run_degraded, run, hg)
                        for run in batch]
            algorithm = self._algorithm_for(request0, hg)
            if len(batch) == 1:
                payloads = [self._guarded(self._run_single, batch[0], hg,
                                          algorithm)]
            else:
                payloads = self._run_merged(batch, hg, algorithm)
        except Exception as exc:
            self._count("errors")
            self.breaker.record(netlist_key, healthy=False, error=str(exc))
            if isinstance(exc, ProtocolError):
                raise
            raise ProtocolError(f"execution failed: {exc}",
                                status=500) from exc
        self.breaker.record(netlist_key,
                            healthy=self._batch_healthy(payloads),
                            error=self._batch_error(payloads))
        return payloads

    def _guarded(self, runner, *args) -> object:
        """Run one request's executor call, converting its failure into
        a per-member exception instead of poisoning batch mates."""
        try:
            return runner(*args)
        except ProtocolError as exc:
            self._count("errors")
            return exc
        except Exception as exc:
            self._count("errors")
            return ProtocolError(f"execution failed: {exc}", status=500)

    @staticmethod
    def _batch_healthy(payloads: List[object]) -> bool:
        """An execution is healthy only when every member produced a
        payload whose starts all finished ``ok`` — crashes *and*
        timeouts count against the breaker."""
        for payload in payloads:
            if isinstance(payload, Exception):
                return False
            statuses = payload.get("statuses", {})
            if any(status != "ok" for status in statuses):
                return False
        return True

    @staticmethod
    def _batch_error(payloads: List[object]) -> str:
        for payload in payloads:
            if isinstance(payload, Exception):
                return str(payload)
            bad = [s for s in payload.get("statuses", {}) if s != "ok"]
            if bad:
                return f"starts finished {','.join(sorted(bad))}"
        return ""

    def _deadline_seconds(self, batch: List[PendingRun]) -> Optional[float]:
        """Remaining wall budget for this executor invocation: the
        tightest member deadline governs the merged portfolio (its
        records are split back per request, so no member may be served
        past its own deadline by a mate's slack)."""
        instants = [r.deadline_at for r in batch if r.deadline_at is not None]
        if not instants:
            return None
        remaining = min(instants) - time.monotonic()
        return max(remaining, _MIN_PORTFOLIO_DEADLINE)

    def _algorithm_for(self, request: PartitionRequest, hg):
        if request.mode == "ml-reuse":
            config = ml_config_for(request.algorithm, request.ratio,
                                   request.threshold, request.tolerance)
            hierarchy = self.hierarchies.get(hg, config,
                                             request.hierarchy_seed)
            return ml_reuse_algorithm(config, hierarchy)
        return build_algorithm(request.algorithm, k=request.k,
                               ratio=request.ratio,
                               threshold=request.threshold,
                               tolerance=request.tolerance,
                               descents=request.descents,
                               vcycles=request.vcycles)

    def _run_single(self, run: PendingRun, hg, algorithm) -> dict:
        request = run.request
        portfolio = Portfolio(algorithm=algorithm, hg=hg,
                              runs=request.runs, seed=request.seed,
                              keep_results=True,
                              trace=run.spool.get("trace"),
                              record=run.spool.get("record"),
                              retries=self.retries, faults=self.faults,
                              deadline_seconds=self._deadline_seconds([run]),
                              trace_id=run.effective_trace_id)
        result = execute(portfolio, executor=self.executor)
        self._count("executed_portfolios")
        self._count("executed_starts", result.runs)
        self._keep_spooled(run)
        return self._payload(run, result, hg)

    def _run_degraded(self, run: PendingRun, hg) -> dict:
        """Breaker-open fallback: one start of the request's own
        algorithm and seed instead of its full portfolio, run inline
        on the lane thread."""
        request = run.request
        algorithm = self._algorithm_for(request, hg)
        portfolio = Portfolio(algorithm=algorithm, hg=hg,
                              runs=1, seed=request.seed,
                              keep_results=True,
                              trace=run.spool.get("trace"),
                              record=run.spool.get("record"),
                              deadline_seconds=self._deadline_seconds([run]),
                              trace_id=run.effective_trace_id)
        result = execute(portfolio, jobs=1)
        self._count("executed_portfolios")
        self._count("executed_starts", result.runs)
        self._count("degraded_served")
        self._keep_spooled(run)
        payload = self._payload(run, result, hg)
        payload["degraded"] = True
        payload["degraded_reason"] = "breaker_open"
        payload["runs"] = 1
        _log.warning("breaker open for %s: served degraded single-start "
                     "answer to %s", hg.name, run.id)
        return payload

    def _run_merged(self, batch: List[PendingRun], hg,
                    algorithm) -> List[dict]:
        """One executor invocation covering every request's seed
        stream; records split back per request afterwards."""
        job_list: List[Job] = []
        offsets: List[int] = []
        for run in batch:
            offsets.append(len(job_list))
            seeds = child_seeds(run.request.seed, run.request.runs)
            base = len(job_list)
            job_list.extend(Job(index=base + i, seed=s)
                            for i, s in enumerate(seeds))
        merged = BatchPortfolio(algorithm=algorithm, hg=hg,
                                runs=len(job_list),
                                seed=batch[0].request.seed,
                                keep_results=True, job_list=job_list,
                                retries=self.retries, faults=self.faults,
                                deadline_seconds=self._deadline_seconds(batch),
                                trace_id=batch[0].effective_trace_id)
        tr = tracer()
        if tr.enabled:
            # One child marker per batched member, inside the
            # ``service.execute`` scope: ties each rider's IDs and seed
            # range to the shared execution tree.
            for run, offset in zip(batch, offsets):
                tr.instant("service.batch_member", {
                    "exec_id": batch[0].id, "member_id": run.id,
                    "member_trace_id": run.effective_trace_id,
                    "request_id": run.request_id,
                    "offset": offset, "runs": run.request.runs})
        result = self.executor.run(merged)
        self._count("executed_portfolios")
        self._count("executed_starts", len(job_list))
        self._count("batched_requests", len(batch))
        _log.info("batched %d requests (%d starts) on %s",
                  len(batch), len(job_list), hg.name)
        payloads: List[object] = []
        for run, offset in zip(batch, offsets):
            n = run.request.runs
            records = [replace(result.records[offset + i], index=i)
                       for i in range(n)]
            sub = PortfolioResult(
                algorithm=merged.name, circuit=hg.name, records=records,
                wall_seconds=sum(r.wall_seconds for r in records),
                jobs=self.executor.jobs)
            # Each request is ledger-recorded as its own portfolio —
            # same entry a standalone CLI run would have written.
            portfolio = Portfolio(algorithm=algorithm, hg=hg, runs=n,
                                  seed=run.request.seed, keep_results=True,
                                  trace_id=run.effective_trace_id)
            record_result(sub, portfolio, jobs=self.executor.jobs)
            payloads.append(self._guarded(self._payload, run, sub, hg))
        return payloads

    def _payload(self, run: PendingRun, result: PortfolioResult,
                 hg) -> dict:
        request = run.request
        if not result.ok_records:
            first = result.records[0] if result.records else None
            if result.records and all(r.status == STATUS_TIMEOUT
                                      for r in result.records):
                raise ProtocolError(
                    f"deadline exhausted before any of {result.runs} "
                    f"starts completed", status=504)
            raise ProtocolError(
                f"all {result.runs} runs failed"
                + (f": {first.error}" if first is not None else ""),
                status=500)
        statuses: Dict[str, int] = {}
        for record in result.records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        cuts = result.cuts
        payload: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "id": run.id,
            "algorithm": result.algorithm,
            "circuit": result.circuit,
            "k": request.k,
            "runs": request.runs,
            "seed": request.seed,
            "mode": request.mode,
            "cuts": list(cuts),
            "min_cut": min(cuts),
            "median_cut": median(cuts),
            "statuses": statuses,
            "fingerprint": result.fingerprint_digest(),
            "request_key": run.key,
            "wall_seconds": round(result.wall_seconds, 6),
            "cpu_seconds": round(result.cpu_seconds, 6),
            "cached": False,
            "coalesced": False,
            "degraded": False,
        }
        if statuses.get(STATUS_TIMEOUT):
            # Best-completed-starts partial: the portfolio deadline
            # killed some starts but others finished — degrade rather
            # than error, and never cache (see ``serve``'s factory).
            payload["degraded"] = True
            payload["degraded_reason"] = "deadline"
            self._count("degraded_served")
        best = result.best
        if best.result is not None:
            partition = best.result.partition
            areas = partition.part_areas(hg)
            constraint = BalanceConstraint.from_tolerance(
                hg, request.tolerance, k=request.k)
            payload["part_areas"] = [round(a, 6) for a in areas]
            payload["balanced"] = constraint.is_feasible(areas)
            payload["assignment"] = list(partition.assignment)
        for channel in run.spool:
            payload[channel] = f"/{channel}/{run.id}"
        return payload

    # -- traces and recordings -----------------------------------------

    def _spool_path(self, channel: str, run_id: str) -> str:
        if self._spool_dir is None:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-serve-")
        else:
            os.makedirs(self._spool_dir, exist_ok=True)
        return os.path.join(self._spool_dir, f"{run_id}.{channel}.jsonl")

    def _keep_spooled(self, run: PendingRun) -> None:
        """Publish an executed run's trace/recording for download."""
        for channel, path in run.spool.items():
            self._spooled[channel, run.id] = path

    def spooled_file(self, channel: str, run_id: str) -> Path:
        """The ``trace`` or ``record`` file of run ``run_id``."""
        path = self._spooled.get((channel, run_id))
        if path is None or not os.path.exists(path):
            raise ProtocolError(f"no {channel} for run {run_id!r}",
                                status=404)
        return Path(path)

    # -- accounting ----------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += amount

    def counters(self) -> Dict[str, int]:
        with self._counter_lock:
            return dict(self._counters)

    def stats(self) -> Dict[str, object]:
        """The ``/healthz`` diagnostics block."""
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": self.jobs,
            "default_deadline_ms": self.default_deadline_ms,
            "lane": {"queued": self.lane.queued, "busy": self.lane.busy,
                     "draining": self.lane.draining,
                     "max_queued": self.lane.max_queued,
                     "shed": self.lane.shed,
                     "expired": self.lane.expired,
                     "retry_after_seconds": self.lane.retry_after()},
            "breaker": self.breaker.stats(),
            "counters": self.counters(),
            "result_cache": self.results.stats(),
            "netlist_cache": self.netlists.stats(),
            "hierarchy_cache": self.hierarchies.stats(),
            "coalescer": self.coalescer.stats(),
        }

    def status(self) -> Dict[str, object]:
        """The engine's part of the ``GET /status`` body: everything
        :meth:`stats` reports plus the live in-flight table.  The
        server layers request-level latency summaries and profiler
        state on top."""
        body = self.stats()
        body["in_flight"] = self.lane.in_flight()
        return body

    def export_metrics(self, registry) -> None:
        """Sync engine counters/cache stats into ``registry`` (called
        at scrape time, so the text exposition always reflects now)."""
        for name, value in self.counters().items():
            registry.counter(f"repro_service_{name}_total",
                             f"Service {name.replace('_', ' ')}."
                             ).value = float(value)
        for label, cache in (("result", self.results),
                             ("netlist", self.netlists)):
            stats = cache.stats()
            for stat in ("entries", "hits", "misses", "evictions"):
                registry.gauge("repro_service_cache_" + stat,
                               "Service cache " + stat + ", by cache.",
                               cache=label).set(float(stats[stat]))
        registry.gauge("repro_service_lane_queued",
                       "Requests waiting on the execution lane."
                       ).set(float(self.lane.queued))
        registry.counter("repro_service_lane_shed_total",
                         "Requests refused with 429 at the lane's "
                         "high-watermark.").value = float(self.lane.shed)
        registry.counter("repro_service_lane_expired_total",
                         "Queued requests whose deadline lapsed before "
                         "execution.").value = float(self.lane.expired)
        for stat, value in self.breaker.stats().items():
            registry.gauge(f"repro_service_breaker_{stat}",
                           f"Circuit breaker {stat.replace('_', ' ')}."
                           ).set(float(value))
