"""Portfolio executors: serial and multiprocess.

Both executors run the identical start list (:meth:`Portfolio.jobs`)
and produce records in start-index order, so the cut set of a portfolio
is a pure function of its seed — the determinism contract the tests
pin down as ``run_cell(jobs=1) == run_cell(jobs=4)``.

The process executor keeps one ``fork`` pool for its lifetime: the
pool is forked on the first :meth:`ProcessExecutor.run` and reused by
every later run until :meth:`ProcessExecutor.close`.  A portfolio
(netlist, algorithm, any prebuilt hierarchy) reaches the workers one
of two ways:

* a pool forked *for* it inherits it through the fork, so nothing in
  it needs to pickle — closures work;
* a pool that is already live receives it pickled once per run, sent
  with that run's ``(index, seed, attempt)`` tasks; each worker
  unpickles it at most once and keeps only the current one.  A
  portfolio that does not pickle makes the executor close the live
  pool and fork a new one that inherits it.

:func:`execute` with ``jobs=`` forks one pool for the call and closes
it afterwards; a long-lived caller (the service daemon) holds one
executor and closes it on shutdown.  Where ``fork`` is unavailable
(e.g. Windows), :func:`get_executor` degrades to the serial executor
with a warning rather than failing the sweep.

Fault model
-----------
* A start that **raises** is caught (in the worker, or in the parent
  for serial runs) and recorded ``failed``; failed starts are
  re-executed up to ``retries`` times, sleeping the portfolio's
  deterministic backoff schedule between attempts.
* A start that **exceeds the wall-clock budget** is recorded
  ``timeout``, and the pool — hung worker included — is terminated and
  discarded at the end of the run (the next run forks a new one);
  timeouts are never retried (a hung worker already cost a pool slot).
  The serial executor cannot pre-empt, so it flags the overrun after
  the fact —
  both executors demote through the same :func:`_flag_overrun` path,
  so an overrun start is a ``timeout`` at any worker count.
* A **worker that dies** without returning (``os._exit``, segfault) is
  detected through the start-notice channel: every pool task announces
  ``(run token, index, attempt, pid)`` before running, and the
  collector probes that pid while waiting, so a dead worker is recorded
  ``failed`` (and retried) within one poll interval instead of burning
  the whole collection deadline.  The token is unique per run, so a
  notice left over from an earlier run on the same pool never matches
  a later run's start.  The pool respawns a replacement and stays live;
  the sweep always completes.
* A start whose returned solution **fails verification**
  (``portfolio.verify``) is recorded ``invalid`` and retried like a
  failure; its cut never reaches the statistics.

Fault *injection* (``portfolio.faults``) happens inside
:func:`_execute_start` — worker-side under the pool — so an armed plan
produces byte-identical outcome fingerprints serially and in parallel.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..errors import ConfigError, ReproError
from ..faults import FaultInjector
from ..obs import (get_logger, metrics, record_result, recorder,
                   recording, tracer, trace_scope, tracing)
from ..obs.events import absorb, capture, enabled_channels
from ..obs.profile import memory_peak
from .job import Job, Portfolio
from .records import (PortfolioResult, RunRecord,
                      STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT)

_log = get_logger("runtime.executor")

__all__ = ["SerialExecutor", "ProcessExecutor", "get_executor", "execute",
           "DEFAULT_COLLECT_TIMEOUT"]

#: Upper bound on how long the collector waits for any one outstanding
#: start when the portfolio has no ``budget_seconds`` of its own.  A
#: *finite* default is deliberate: with ``timeout=None`` a hung worker
#: would block ``handle.get()`` — and the whole sweep — forever.
DEFAULT_COLLECT_TIMEOUT = 3600.0

#: Collector poll granularity: how often, while waiting on a result,
#: the parent checks the start-notice channel for dead workers.
_POLL_INTERVAL = 0.05

#: How long the collector waits for the result of a start whose worker
#: is gone before charging the death to it: a start finished just before
#: its worker died may still be on its way through the pool's result
#: handler.
_LAST_LOOK = 0.5

OnRecord = Optional[Callable[[RunRecord], None]]
Completed = Optional[Dict[int, RunRecord]]


def _verify_result(portfolio: Portfolio, result: object) -> Optional[str]:
    """Trust-but-verify: recompute the solution's objectives from scratch.

    The cut is re-measured over the full netlist from the partition
    alone, so a result whose reported cut or assignment was corrupted
    after the engine finished surfaces as an ``invalid`` record.
    Returns an error message, or ``None`` when the result checks out.
    """
    partition = getattr(result, "partition", None)
    if partition is None:
        return "verify: result exposes no partition to check"
    from ..partition.balance import BalanceConstraint
    from ..partition.objectives import cut
    try:
        recomputed = cut(portfolio.hg, partition)
        reported = getattr(result, "cut", None)
        if recomputed != reported:
            return (f"verify: reported cut {reported} != recomputed cut "
                    f"{recomputed}")
        tolerance = portfolio.verify
        if isinstance(tolerance, float) and not isinstance(tolerance, bool):
            constraint = BalanceConstraint.from_tolerance(
                portfolio.hg, tolerance, k=partition.k)
            areas = partition.part_areas(portfolio.hg)
            if not constraint.is_feasible(areas):
                return (f"verify: part areas "
                        f"{[round(a, 2) for a in areas]} violate balance "
                        f"tolerance r={tolerance:g}")
    except ReproError as exc:
        return f"verify: recomputation failed: {exc}"
    return None


def _execute_start(portfolio: Portfolio, index: int, seed: int,
                   attempt: int, worker: str,
                   in_worker: bool = False) -> RunRecord:
    """Run one start, converting any exception into a failed record.

    Backoff for retries is slept here — before the timed section, in
    whichever process runs the start — so the schedule is identical
    under both executors (under the pool it does, however, count
    toward the parent's collection deadline).  In a pool worker the
    sinks sampled here are the per-start collectors :func:`_pool_run`
    installs.
    """
    tr = tracer()
    mx = metrics()
    rc = recorder()
    if rc.enabled:
        rc.emit({"t": "start", "i": index, "seed": seed,
                 "alg": portfolio.name})
    # Request-scoped correlation: every event below (this function's
    # spans and everything portfolio.fn emits) carries the portfolio's
    # trace_id.  Entered by hand to avoid indenting the whole body.
    scope = trace_scope(trace_id=portfolio.trace_id)
    scope.__enter__()
    if attempt > 1:
        delay = portfolio.backoff_delay(index, attempt)
        if delay > 0.0:
            if tr.enabled:
                tr.instant("portfolio.backoff", {
                    "index": index, "attempt": attempt,
                    "delay_s": round(delay, 4)})
            time.sleep(delay)
    injector = (FaultInjector(portfolio.faults)
                if portfolio.faults is not None else None)
    t_start = tr.begin() if tr.enabled else 0
    mem = memory_peak()
    mem.__enter__()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        corrupting = (injector.fire(index, attempt, in_worker=in_worker)
                      if injector is not None else None)
        if corrupting is not None and tr.enabled:
            tr.instant("portfolio.fault", {
                "index": index, "attempt": attempt,
                "kind": str(corrupting)})
        result = portfolio.fn(portfolio.hg, seed)
        partition = getattr(result, "partition", None)
        if rc.enabled and partition is not None:
            # Footer records what the algorithm computed — before any
            # injected corruption, which is a downstream fault, not a
            # decision.  The replay engine re-measures this cut and
            # matches the assignment bit for bit.
            footer = {"t": "result", "i": index, "cut": result.cut,
                      "assign": "".join(map(str, partition.assignment))}
            if partition.k != 2:
                footer["k"] = partition.k
                if partition.k > 10:
                    footer["assign"] = list(partition.assignment)
            rc.emit(footer)
        if corrupting is not None:
            result = injector.corrupt(corrupting, index, attempt,
                                      portfolio.hg, result)
        record = RunRecord(
            index=index, seed=seed, status=STATUS_OK, cut=result.cut,
            result=result if portfolio.keep_results else None)
        if portfolio.verify:
            error = _verify_result(portfolio, result)
            if error is not None:
                record.mark_invalid(error)
                _log.warning("start %d (seed %d, attempt %d): %s",
                             index, seed, attempt, error)
                if tr.enabled:
                    tr.instant("portfolio.verify_failed", {
                        "index": index, "attempt": attempt,
                        "error": error})
    except Exception as exc:
        record = RunRecord(
            index=index, seed=seed, status=STATUS_FAILED,
            error="".join(traceback.format_exception_only(exc)).strip())
    record.wall_seconds = time.perf_counter() - wall0
    record.cpu_seconds = time.process_time() - cpu0
    mem.__exit__()
    record.worker = worker
    record.attempts = attempt
    record.peak_mem_bytes = mem.peak_bytes
    if tr.enabled:
        span_args = {
            "index": index, "seed": seed, "attempt": attempt,
            "status": record.status, "cut": record.cut, "worker": worker}
        if mem.peak_bytes is not None:
            span_args["peak_mem_bytes"] = mem.peak_bytes
        tr.end("portfolio.start", t_start, span_args)
    if mx.enabled:
        mx.counter("repro_portfolio_starts_total",
                   "Portfolio starts executed, by outcome.",
                   status=record.status).inc()
        mx.histogram("repro_portfolio_start_seconds",
                     "Wall time of individual portfolio starts."
                     ).observe(record.wall_seconds)
        if mem.peak_bytes is not None:
            mx.gauge("repro_portfolio_peak_mem_bytes",
                     "Peak tracemalloc bytes of the most recently "
                     "profiled start.").set(mem.peak_bytes)
    scope.__exit__()
    return record


def _flag_overrun(record: RunRecord, budget: Optional[float]) -> bool:
    """Demote a completed-but-overrun start to ``timeout``.

    The single budget-flagging path for both executors: the serial
    executor cannot pre-empt at all, and the pool's collector can race
    a start that finishes just past its budget — either way the record
    ends up identical to one whose worker was killed mid-flight.
    """
    if record.ok and budget is not None and record.wall_seconds > budget:
        record.mark_timeout(f"exceeded budget of {budget:g}s "
                            f"({record.wall_seconds:.2f}s)")
        return True
    return False


def _deadline_record(portfolio: Portfolio, index: int, seed: int,
                     attempt: int, worker: str) -> RunRecord:
    """Record for a start sacrificed to the portfolio deadline.

    Shared by both executors so a deadline-killed start looks identical
    whether it never launched (serial) or its worker was terminated
    mid-flight (pool): a ``timeout`` record whose error names the
    portfolio deadline.
    """
    tr = tracer()
    if tr.enabled:
        tr.instant("portfolio.deadline", {
            "index": index, "attempt": attempt,
            "deadline_s": portfolio.deadline_seconds})
    return RunRecord(
        index=index, seed=seed, status=STATUS_OK, worker=worker,
        attempts=attempt,
    ).mark_timeout(
        f"portfolio deadline of {portfolio.deadline_seconds:g}s "
        "exhausted before this start completed")


class SerialExecutor:
    """Runs starts in order, in-process — the harness's historical
    behaviour plus fault isolation and budget flagging.  Holds no
    resources; :meth:`close` exists so callers can treat both executors
    alike."""

    jobs = 1

    def close(self) -> None:
        pass

    def run(self, portfolio: Portfolio, completed: Completed = None,
            on_record: OnRecord = None) -> PortfolioResult:
        wall0 = time.perf_counter()
        deadline_at = (wall0 + portfolio.deadline_seconds
                       if portfolio.deadline_seconds is not None else None)
        completed = dict(completed or {})
        records: List[RunRecord] = []
        for job in portfolio.jobs():
            if job.index in completed:
                records.append(completed[job.index])
                continue
            if deadline_at is not None and \
                    time.perf_counter() >= deadline_at:
                record = _deadline_record(portfolio, job.index, job.seed,
                                          1, worker="serial")
            else:
                record = self._run_with_retries(portfolio, job, deadline_at)
            if on_record is not None:
                on_record(record)
            records.append(record)
        return PortfolioResult(
            algorithm=portfolio.name, circuit=portfolio.hg.name,
            records=records, wall_seconds=time.perf_counter() - wall0,
            jobs=1)

    def _run_with_retries(self, portfolio: Portfolio, job: Job,
                          deadline_at: Optional[float] = None) -> RunRecord:
        attempt = 1
        while True:
            record = _execute_start(portfolio, job.index, job.seed,
                                    attempt, worker="serial")
            _flag_overrun(record, portfolio.budget_seconds)
            if not record.retryable or attempt > portfolio.retries \
                    or (deadline_at is not None
                        and time.perf_counter() >= deadline_at):
                return record
            _log.info("retrying start %d (seed %d): %s on attempt %d — %s",
                      job.index, job.seed, record.status, attempt,
                      record.error)
            attempt += 1


#: Run tokens, unique within the process.  Every pool task and start
#: notice carries its run's token, so a worker knows whether the
#: portfolio it holds is current and the collector ignores notices
#: from earlier runs.
_TOKENS = itertools.count(1)

# ``(token, portfolio)``.  In the parent: the run in progress, so a
# worker the pool forks during it (the first ones, or a respawn)
# inherits the portfolio.  In a worker: the last portfolio it ran.
_ACTIVE: Optional[Tuple[int, Portfolio]] = None

# Start-notice channel: workers announce (token, index, attempt, pid)
# before running a task, letting the parent tell a dead worker (pid
# gone, record failed, retry) from a hung one (pid alive, record
# timeout).  In a worker, set by ``_pool_worker_init``; in the parent,
# the live pool's channel for the duration of a run.
_NOTICES = None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def _pool_worker_init(notices) -> None:
    """Bind the pool's start-notice channel and restore default signal
    handling in a freshly forked pool worker.

    The service daemon's asyncio loop installs ``SIGTERM``/``SIGINT``
    handlers and a signal wakeup fd, both of which survive the fork.  A
    worker that keeps them swallows the ``SIGTERM`` that
    ``Pool.terminate()`` sends (the handler only writes to the parent's
    wakeup pipe), so pool shutdown blocks forever — observed as the
    daemon wedging on its second request with ``--jobs 2``.  Cheap and
    harmless when the parent never touched signals.
    """
    global _NOTICES
    _NOTICES = notices
    import signal
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass


def _pool_run(task: Tuple[int, int, int], token: int,
              shipped: Optional[bytes],
              channels: FrozenSet[str]) -> RunRecord:
    """Run one start of run ``token`` in a pool worker.

    The worker uses the portfolio it holds when that is run ``token``'s
    (inherited through the fork, or unpickled for an earlier task of
    the run); otherwise it unpickles ``shipped``, replacing the one it
    held.  Telemetry is captured on exactly the ``channels`` the parent
    has live; the payloads ride back on the record — the only path
    events take out of a worker.
    """
    global _ACTIVE
    index, seed, attempt = task
    if _NOTICES is not None:
        _NOTICES.put((token, index, attempt, os.getpid()))
    if _ACTIVE is None or _ACTIVE[0] != token:
        if shipped is None:
            raise ReproError(f"pool worker holds no portfolio for run {token}")
        _ACTIVE = (token, pickle.loads(shipped))
    with capture(channels) as telemetry:
        record = _execute_start(_ACTIVE[1], index, seed, attempt,
                                worker=f"pid:{os.getpid()}", in_worker=True)
    record.telemetry = telemetry or None
    return record


class ProcessExecutor:
    """Fans starts out to a fork-based worker pool that lives across runs.

    The pool is forked on the first :meth:`run` and reused by every
    later one until :meth:`close` (or the end of a ``with`` block).  A
    portfolio reaches the workers through the fork when the pool is
    forked for it, and pickled once per run, with that run's tasks,
    when the pool is already live; a portfolio that does not pickle
    closes the live pool and forks a new one that inherits it.  Runs
    on one executor must not overlap.

    ``budget_seconds`` (from the portfolio) bounds how long the parent
    waits on each outstanding start while collecting — **measured from
    the moment collection of that record begins, not from task
    dispatch** (records are collected in submission order, so an
    earlier slow start extends the wall-clock grace of later ones; it
    never shrinks it).  With no budget the wait is still finite
    (:data:`DEFAULT_COLLECT_TIMEOUT`), so a hung worker can delay a
    sweep but never wedge it.  A start that blows the deadline is
    recorded as a timeout, and at the end of the run the pool is
    terminated — hung worker included — and discarded; the next run
    forks a new one.  Failed (raising or dead-worker) and invalid
    (verification) starts are resubmitted up to ``retries`` times;
    timeouts are not retried — a hung worker already costs a pool slot.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ConfigError(f"ProcessExecutor needs jobs >= 2, got {jobs}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "ProcessExecutor requires the 'fork' start method")
        self.jobs = jobs
        self._pool = None
        self._notices = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Terminate and join the worker pool, if one is live.  Safe to
        call twice; a later :meth:`run` forks a new pool."""
        pool, self._pool, self._notices = self._pool, None, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def _ship(self, portfolio: Portfolio) -> Optional[bytes]:
        """``portfolio`` pickled for the live pool, or ``None`` when the
        pool will be forked for it (none is live, or it does not pickle,
        in which case the live pool is closed)."""
        if self._pool is None:
            return None
        try:
            return pickle.dumps(portfolio, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # A lambda, local object or lock inside: fork instead.
            _log.debug("portfolio %s does not pickle (%s); forking a new "
                       "pool", portfolio.name, exc)
            self.close()
            return None

    def run(self, portfolio: Portfolio, completed: Completed = None,
            on_record: OnRecord = None) -> PortfolioResult:
        global _ACTIVE, _NOTICES
        wall0 = time.perf_counter()
        deadline_at = (wall0 + portfolio.deadline_seconds
                       if portfolio.deadline_seconds is not None else None)
        records: Dict[int, RunRecord] = dict(completed or {})
        pending = [(job.index, job.seed, 1) for job in portfolio.jobs()
                   if job.index not in records]
        if pending:
            token = next(_TOKENS)
            shipped = self._ship(portfolio)
            _ACTIVE = (token, portfolio)
            try:
                if self._pool is None:
                    # Workers inherit the compiled FM pass instead of
                    # each building or loading it.
                    from ..fm.native import load
                    load()
                    context = multiprocessing.get_context("fork")
                    self._notices = context.SimpleQueue()
                    self._pool = context.Pool(
                        processes=self.jobs, initializer=_pool_worker_init,
                        initargs=(self._notices,))
                _NOTICES = self._notices
                timed_out = self._fan_out(portfolio, pending, token, shipped,
                                          records, deadline_at, on_record)
            except BaseException:
                self.close()
                raise
            finally:
                _ACTIVE = None
                _NOTICES = None
            if timed_out:
                # Hung workers never return: discard the pool.
                self.close()
        ordered = [records[i] for i in sorted(records)]
        return PortfolioResult(
            algorithm=portfolio.name, circuit=portfolio.hg.name,
            records=ordered, wall_seconds=time.perf_counter() - wall0,
            jobs=self.jobs)

    def _fan_out(self, portfolio: Portfolio,
                 pending: List[Tuple[int, int, int]], token: int,
                 shipped: Optional[bytes], records: Dict[int, RunRecord],
                 deadline_at: Optional[float], on_record: OnRecord) -> bool:
        """Submit ``pending`` to the pool and collect every start into
        ``records``, resubmitting retryable ones.  Returns whether any
        start timed out."""
        channels = enabled_channels()
        started: Dict[Tuple[int, int], int] = {}
        timed_out = False
        while pending:
            inflight = [(task, self._pool.apply_async(
                            _pool_run, (task, token, shipped, channels)))
                        for task in pending]
            pending = []
            for task, handle in inflight:
                index, seed, attempt = task
                record = self._collect(portfolio, handle, index, seed,
                                       attempt, started, deadline_at)
                # Every collected attempt's telemetry — a retried
                # attempt's failed span included.
                absorb(record.telemetry)
                record.telemetry = None
                timed_out |= record.status == STATUS_TIMEOUT
                if (record.retryable and attempt <= portfolio.retries
                        and (deadline_at is None
                             or time.perf_counter() < deadline_at)):
                    _log.info("retrying start %d (seed %d): %s on attempt "
                              "%d — %s", index, seed, record.status,
                              attempt, record.error)
                    pending.append((index, seed, attempt + 1))
                    continue
                records[index] = record
                if on_record is not None:
                    on_record(record)
        return timed_out

    @staticmethod
    def _drain_notices(started: Dict[Tuple[int, int], int]) -> None:
        """Fold the current run's start notices into ``started``,
        dropping any left over from an earlier run on the pool."""
        queue = _NOTICES
        if queue is None or _ACTIVE is None:
            return
        current = _ACTIVE[0]
        while not queue.empty():
            token, index, attempt, pid = queue.get()
            if token == current:
                started[(index, attempt)] = pid

    @classmethod
    def _collect(cls, portfolio: Portfolio, handle, index: int, seed: int,
                 attempt: int, started: Dict[Tuple[int, int], int],
                 deadline_at: Optional[float] = None) -> RunRecord:
        """Wait for one outstanding start, with a finite deadline.

        The per-start deadline — ``budget_seconds`` or, when the
        portfolio has none, :data:`DEFAULT_COLLECT_TIMEOUT` — is
        measured from the start of *this collection*, not from task
        dispatch.  ``deadline_at`` (an absolute ``perf_counter`` time)
        additionally bounds the whole portfolio: once it passes, every
        uncollected start is recorded as a deadline timeout without
        further waiting, and the caller terminates the pool — killing
        in-flight workers — on the timeout flag.  While waiting, the
        collector polls the start-notice channel: a task whose
        announced worker pid has vanished is recorded ``failed``
        (worker died — retryable) after one last wait of at most
        :data:`_LAST_LOOK` for a result the worker sent before it died,
        instead of masquerading as a timeout after the full deadline.
        """
        budget = portfolio.budget_seconds
        deadline = budget if budget is not None else DEFAULT_COLLECT_TIMEOUT
        waited = 0.0
        last_look = False
        while True:
            cls._drain_notices(started)
            if deadline_at is not None and \
                    time.perf_counter() >= deadline_at:
                _log.warning("portfolio deadline exhausted; recording "
                             "start %d (seed %d, attempt %d) as timeout",
                             index, seed, attempt)
                return _deadline_record(portfolio, index, seed, attempt,
                                        worker="pool")
            step = min(_LAST_LOOK if last_look else _POLL_INTERVAL,
                       max(deadline - waited, 0.001))
            if deadline_at is not None:
                step = min(step,
                           max(deadline_at - time.perf_counter(), 0.001))
            try:
                record = handle.get(timeout=step)
            except multiprocessing.TimeoutError:
                waited += step
                cls._drain_notices(started)
                pid = started.get((index, attempt))
                if pid is not None and not _pid_alive(pid):
                    if not last_look:
                        # One last bounded wait for a result the
                        # worker may have sent before it died.
                        last_look = True
                        continue
                    _log.warning("worker pid %d died before returning "
                                 "start %d (seed %d, attempt %d)",
                                 pid, index, seed, attempt)
                    tr = tracer()
                    if tr.enabled:
                        tr.instant("portfolio.worker_death", {
                            "index": index, "attempt": attempt,
                            "worker_pid": pid})
                    return RunRecord(
                        index=index, seed=seed, status=STATUS_OK,
                        wall_seconds=waited, worker=f"pid:{pid}",
                        attempts=attempt,
                    ).mark_failed(
                        f"worker pid {pid} died before returning")
                if waited >= deadline:
                    _log.warning("start %d (seed %d, attempt %d) produced "
                                 "no result within %gs; recorded timeout",
                                 index, seed, attempt, deadline)
                    tr = tracer()
                    if tr.enabled:
                        tr.instant("portfolio.timeout", {
                            "index": index, "attempt": attempt,
                            "deadline_s": deadline})
                    return RunRecord(
                        index=index, seed=seed, status=STATUS_OK,
                        wall_seconds=waited, worker="pool",
                        attempts=attempt,
                    ).mark_timeout(
                        f"no result within {deadline:g}s of collection "
                        "(deadline runs from collection start, not task "
                        "dispatch)")
            except Exception as exc:
                # The worker died in a way the pool itself reported.
                _log.warning("pool reported start %d (seed %d, attempt %d) "
                             "failed: %s", index, seed, attempt, exc)
                return RunRecord(
                    index=index, seed=seed, status=STATUS_OK,
                    worker="pool", attempts=attempt,
                ).mark_failed("".join(
                    traceback.format_exception_only(exc)).strip())
            else:
                _flag_overrun(record, budget)
                return record


def get_executor(jobs: int = 1, executor=None):
    """Resolve the ``jobs=``/``executor=`` knobs to an executor.

    An explicit ``executor`` object wins; otherwise ``jobs == 1`` is
    serial and ``jobs > 1`` a fork pool of that width (falling back to
    serial, with a warning, on platforms without ``fork``).  A new
    executor belongs to the caller, who closes it to release its pool.
    """
    if executor is not None:
        return executor
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialExecutor()
    try:
        return ProcessExecutor(jobs)
    except ConfigError as exc:
        _log.warning("parallel execution unavailable (%s); running "
                     "serially", exc)
        warnings.warn(f"parallel execution unavailable ({exc}); "
                      "running serially", RuntimeWarning, stacklevel=2)
        return SerialExecutor()


def execute(portfolio: Portfolio, jobs: int = 1, executor=None,
            completed: Completed = None,
            on_record: OnRecord = None) -> PortfolioResult:
    """Run ``portfolio`` on the executor selected by ``jobs``/``executor``.

    ``completed`` maps start indices to already-finished records (from
    a checkpoint); those starts are not re-run.  ``on_record`` is
    invoked in the parent for every *newly* finished record — the
    checkpoint streaming hook.

    With no ``executor``, the one ``jobs`` selects is created for this
    call and closed before returning, so a ``jobs > 1`` call forks one
    pool and leaves no worker behind.  An explicit ``executor`` is used
    as it is and left open — the caller owns its lifetime.

    When ``portfolio.trace`` is a path, the whole run — worker events
    included — is written there as a Chrome trace-event stream.  The
    file's tracer is installed for the calling thread and this
    portfolio's pool workers only, so other threads (the daemon's
    event loop) keep emitting to their own tracer.  ``portfolio.record``
    behaves the same way for the decision recording
    (:mod:`repro.obs.recorder`).

    Every completed execution is recorded in the run ledger
    (:mod:`repro.obs.ledger`) unless ``REPRO_LEDGER=off``; when a trace
    file was written, its per-phase rollup rides along in the entry.
    """
    runner = get_executor(jobs, executor)
    trace_path = portfolio.trace if isinstance(portfolio.trace, str) else None
    record_path = (portfolio.record
                   if isinstance(portfolio.record, str) else None)
    try:
        with tracing(trace_path), recording(record_path):
            result = runner.run(portfolio, completed=completed,
                                on_record=on_record)
    finally:
        if executor is None:
            runner.close()
    # After the tracing context closes, so phase rollups read a
    # flushed, complete file.
    record_result(result, portfolio, jobs=runner.jobs,
                  trace_path=trace_path)
    return result
