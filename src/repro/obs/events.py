"""The one event pipeline behind spans and decisions.

Spans (:mod:`repro.obs.trace`: where the time went) and decisions
(:mod:`repro.obs.recorder`: what the partitioner chose) share every
piece of machinery below; only their event vocabularies differ.

* **One sink family.**  :class:`NullSink` (disabled), :class:`BufferSink`
  (in memory) and :class:`JsonlSink` (a file, one JSON object per
  line).  Hot paths sample their channel's sink once per coarse
  operation (an FM call, a coarsening level — never per move or per
  pin) and guard every event construction behind ``enabled``.
* **Channels with execution-scoped installation.**  A :class:`Channel`
  holds a process-wide default sink (:meth:`Channel.set_default`: the
  daemon's ``--trace`` file) and a per-thread override
  (:meth:`Channel.scoped`: what ``execute()`` installs for a
  portfolio's own ``trace``/``record`` path), the same scoping the
  trace context below uses.  A sink installed for one execution
  therefore never sees another thread's events.
* **One worker transport.**  :func:`capture` collects one pool start's
  telemetry on exactly the channels the parent named; the payloads
  travel back as ``RunRecord.telemetry`` and :func:`absorb` merges
  them into the parent's sinks.
* **One tolerant reader.**  :func:`read_jsonl` reads traces,
  recordings, the ledger, the access log and checkpoints.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Union

from ..errors import ReproError
from .log import get_logger

__all__ = ["Event", "Sink", "NullSink", "BufferSink", "JsonlSink", "NULL",
           "Channel", "CHANNELS", "enabled_channels", "capture", "absorb",
           "read_jsonl", "trace_context", "set_trace_context",
           "trace_scope"]

_log = get_logger("obs.events")

Event = Dict[str, object]


# -- request-scoped trace context ---------------------------------------
#
# A small mapping of correlation IDs (request_id, trace_id, exec_id)
# stamped into the args of every span and instant a thread emits while
# a scope is installed — that is what lets a merged multi-process trace
# be regrouped into one tree per request.  Storage is thread-local
# because the service daemon emits from two threads concurrently (the
# asyncio event loop writes request spans while the execution lane's
# worker thread runs portfolios); a forked worker re-installs its
# context explicitly from the Portfolio it executes (see
# runtime.executor), so no fork-inheritance subtleties are involved.

class _TraceContext(threading.local):
    def __init__(self) -> None:
        self.ids: Dict[str, str] = {}


_CONTEXT = _TraceContext()


def trace_context() -> Dict[str, str]:
    """The calling thread's active correlation IDs (possibly empty)."""
    return dict(_CONTEXT.ids)


def set_trace_context(ids: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Replace the calling thread's context; returns the previous one."""
    previous = _CONTEXT.ids
    _CONTEXT.ids = {k: str(v) for k, v in (ids or {}).items()
                    if v is not None}
    return previous


class trace_scope:
    """Context manager: merge correlation IDs into the thread context.

    Nested scopes accumulate (an execution scope inside a request scope
    carries both IDs); ``None`` values are dropped so call sites can
    pass optional IDs unconditionally.  The previous context is
    restored on exit.
    """

    __slots__ = ("_ids", "_previous")

    def __init__(self, **ids):
        self._ids = ids
        self._previous: Optional[Dict[str, str]] = None

    def __enter__(self) -> Dict[str, str]:
        merged = dict(_CONTEXT.ids)
        merged.update((k, str(v)) for k, v in self._ids.items()
                      if v is not None)
        self._previous = _CONTEXT.ids
        _CONTEXT.ids = merged
        return merged

    def __exit__(self, *exc) -> bool:
        _CONTEXT.ids = self._previous or {}
        return False


# -- the sink family -----------------------------------------------------

def _now_us() -> int:
    """Monotonic microseconds; comparable across forked processes."""
    return time.perf_counter_ns() // 1000


class Sink:
    """Base of the live sinks: the event constructors and span depth.

    Subclasses implement :meth:`emit`.  Decisions are emitted as
    ready-made dicts; spans and instants are built here with *raw*
    monotonic timestamps (a timeline file owns the epoch) and the
    calling thread's trace context merged into their args.  ``level``
    is shared decision context: the multilevel driver stamps the
    current hierarchy level before each refinement call so the engine
    can tag its ``fm`` event without threading an argument through
    every signature.
    """

    enabled = True

    def __init__(self) -> None:
        self._depth = 0
        self.level = -1

    now = staticmethod(_now_us)

    def begin(self) -> int:
        """Open a span by hand; pair with :meth:`end`."""
        self._depth += 1
        return _now_us()

    def end(self, name: str, start_us: int,
            args: Optional[Dict[str, object]] = None) -> None:
        self._depth -= 1
        self.complete(name, start_us, args, depth=self._depth)

    def complete(self, name: str, start_us: int,
                 args: Optional[Dict[str, object]] = None,
                 depth: Optional[int] = None) -> None:
        """Emit a complete ("X") duration event started at ``start_us``."""
        event: Event = {
            "name": name, "ph": "X", "ts": start_us,
            "dur": _now_us() - start_us,
            "pid": os.getpid(), "tid": threading.get_native_id(),
        }
        a = dict(_CONTEXT.ids)
        if args:
            a.update(args)
        a["depth"] = self._depth if depth is None else depth
        event["args"] = a
        self.emit(event)

    def instant(self, name: str,
                args: Optional[Dict[str, object]] = None) -> None:
        event: Event = {
            "name": name, "ph": "i", "s": "p", "ts": _now_us(),
            "pid": os.getpid(), "tid": threading.get_native_id(),
        }
        a = dict(_CONTEXT.ids)
        if args:
            a.update(args)
        if a:
            event["args"] = a
        self.emit(event)

    def emit(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def absorb(self, events: List[Event]) -> None:
        """Merge a block of events collected by another process."""
        for event in events:
            self.emit(event)

    def close(self) -> None:
        pass


class NullSink(Sink):
    """The disabled sink: every operation is a no-op.

    ``enabled`` is the flag hot paths test; everything else exists so
    instrumentation sites never need an ``is None`` check.
    """

    enabled = False

    def begin(self) -> int:
        return 0

    now = begin

    def emit(self, *args, **kwargs) -> None:
        pass

    end = complete = instant = absorb = emit


class BufferSink(Sink):
    """Collects events in memory: a pool worker's per-start collector."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def drain(self) -> List[Event]:
        """Return and clear the buffered events."""
        events, self.events = self.events, []
        return events


class JsonlSink(Sink):
    """Streams events to a file, one compact JSON object per line.

    Thread-safe: the service writes from its event loop and its lane
    thread.  A ``timeline`` file is a Chrome trace: line 1 is ``[``,
    every event line ends in a comma (the spec lets the closing ``]``
    be missing, so a crashed run's trace still loads), and timestamps
    are normalised against the epoch taken at open — one rule for the
    parent's own events and every worker block it absorbs.  Otherwise
    lines are plain JSONL in emission order, with no time column.
    """

    def __init__(self, path: Union[str, Path], timeline: bool = False):
        super().__init__()
        self.path = str(path)
        self.epoch_us = _now_us() if timeline else None
        self._end = ",\n" if timeline else "\n"
        self._file = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        if timeline:
            self._file.write("[\n")
            self.emit({"name": "process_name", "ph": "M",
                       "ts": self.epoch_us, "pid": os.getpid(),
                       "tid": threading.get_native_id(),
                       "args": {"name": "repro"}})

    def _line(self, event: Event) -> str:
        if self.epoch_us is not None:
            event = dict(event)
            event["ts"] = int(event.get("ts", self.epoch_us)) - self.epoch_us
        return json.dumps(event, separators=(",", ":"),
                          default=str) + self._end

    def _write(self, text: str) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.write(text)

    def emit(self, event: Event) -> None:
        self._write(self._line(event))

    def absorb(self, events: List[Event]) -> None:
        """Append a worker's block in one write, never interleaved with
        blocks absorbed on other threads."""
        self._write("".join(map(self._line, events)))

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


#: The disabled sink every span and decision channel starts with.
NULL = NullSink()


# -- channels: where a sink is installed ----------------------------------

#: Every channel by name; a pool worker's :func:`capture` covers them all.
CHANNELS: Dict[str, "Channel"] = {}


class _Override(threading.local):
    # The class attribute makes an unset override a plain attribute
    # hit: a missing thread-local attribute costs an exception.
    sink = None


class Channel:
    """One telemetry stream's installation slot.

    :meth:`current` is what emit sites sample: the calling thread's
    override if it has one, else the process-wide default.
    ``collector``/``drain`` build and empty the in-memory sink a pool
    worker captures into; ``timeline`` picks the trace framing for the
    files :meth:`scoped` opens.
    """

    def __init__(self, name: str, null=NULL, collector=BufferSink,
                 drain=BufferSink.drain, timeline: bool = False):
        self.null = self.default = null
        self.collector = collector
        self.drain = drain
        self.timeline = timeline
        self._local = _Override()
        CHANNELS[name] = self

    def current(self):
        sink = self._local.sink
        return self.default if sink is None else sink

    def set_default(self, sink):
        """Install ``sink`` process-wide (``None`` disables); returns
        the previous default."""
        previous = self.default
        self.default = self.null if sink is None else sink
        return previous

    def install(self, sink):
        """Override the default for the calling thread only (``None``
        removes the override); returns the previous override."""
        previous = self._local.sink
        self._local.sink = sink
        return previous

    @contextmanager
    def scoped(self, target):
        """Route the calling thread's events to ``target`` for the block.

        ``target`` is a path (a :class:`JsonlSink` is opened, and closed
        on exit), a sink (left open for the caller), or ``None`` (no
        change).  Pool workers of portfolios executed inside the block
        capture into it too; other threads keep their own sinks.
        """
        if target is None:
            yield self.current()
            return
        owned = isinstance(target, (str, os.PathLike))
        sink = JsonlSink(target, self.timeline) if owned else target
        previous = self.install(sink)
        try:
            yield sink
        finally:
            self.install(previous)
            if owned:
                sink.close()


def enabled_channels() -> FrozenSet[str]:
    """Names of the channels live for the calling thread — the set a
    pool must capture for the portfolio this thread executes."""
    return frozenset(name for name, channel in CHANNELS.items()
                     if channel.current().enabled)


@contextmanager
def capture(channels: FrozenSet[str]):
    """Collect one pool start's telemetry on exactly ``channels``.

    Every channel gets a fresh collector (if named) or its no-op for
    the calling thread, so nothing reaches a sink inherited through
    fork: a worker the pool respawns is forked from a handler thread
    that never saw the parent's thread-scoped sinks.  The yielded dict
    maps each named channel to its payload once the block exits.
    """
    sinks = {name: channel.collector() if name in channels else channel.null
             for name, channel in CHANNELS.items()}
    previous = {name: CHANNELS[name].install(sink)
                for name, sink in sinks.items()}
    telemetry: Dict[str, object] = {}
    try:
        yield telemetry
    finally:
        for name, sink in sinks.items():
            CHANNELS[name].install(previous[name])
            if name in channels:
                telemetry[name] = CHANNELS[name].drain(sink)


def absorb(telemetry: Optional[Dict[str, object]]) -> None:
    """Merge a worker's captured telemetry into the calling thread's
    sinks.  Span timestamps are raw machine-wide monotonic
    microseconds, so re-emitting them through the parent's timeline
    file lands them at the right offsets."""
    for name, payload in (telemetry or {}).items():
        sink = CHANNELS[name].current()
        if sink.enabled:
            sink.absorb(payload)


# -- reading back ----------------------------------------------------------

def read_jsonl(path: Union[str, Path], strict: bool = False,
               kind: str = "jsonl") -> Iterator[Event]:
    """Yield the JSON objects of a file written by this package, in order.

    Two tolerance rules:

    * ``strict=False`` (the ledger, recordings, the access log —
      shared, append-only streams): any corrupt or truncated line is
      skipped with a warning instead of poisoning every future read,
      and a missing file yields nothing;
    * ``strict=True`` (traces, checkpoints): a truncated *final* line —
      a crashed or still-running writer — is dropped; corruption
      anywhere else raises :class:`~repro.errors.ReproError`.

    Non-object lines are skipped with a warning under both.  A file
    whose first line opens a JSON array is read with the trace framing
    (``[`` line, ``,``-terminated lines, optional closing ``]``).
    ``kind`` labels warnings and errors.
    """
    path = Path(path)
    if not strict and not path.exists():
        return
    framed = None
    bad_line = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            if bad_line is not None:
                raise ReproError(
                    f"{path}: corrupt {kind} line {bad_line}; only a "
                    "truncated final line is tolerated")
            if framed is None:
                framed = text.startswith("[")
                text = text[1:] if framed else text
            if framed:
                text = "[" + text.rstrip(",").rstrip("]").rstrip(",") + "]"
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                if strict:
                    bad_line = lineno
                else:
                    _log.warning("%s: skipping corrupt %s line %d",
                                 path, kind, lineno)
                continue
            for obj in (value if framed else (value,)):
                if isinstance(obj, dict):
                    yield obj
                else:
                    _log.warning("%s: skipping non-object %s line %d",
                                 path, kind, lineno)
