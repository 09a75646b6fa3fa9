"""Span tracer for the multilevel pipeline and portfolio runtime.

The tracer records *spans* (named durations with arguments), *instant*
events, and *counter* samples, and serialises them in the Chrome
trace-event format that ``chrome://tracing`` and Perfetto load
directly.  It is the span channel of the shared event pipeline
(:mod:`repro.obs.events`); design constraints, in order:

1. **Zero overhead when disabled.**  :func:`tracer` returns the
   no-op sink until someone installs a real one; instrumented hot
   paths sample it once per call and guard every event construction
   behind its ``enabled`` flag, so the cost of shipped-but-dormant
   instrumentation is one attribute read per coarse operation (an FM
   call, a coarsening level — never per move or per pin).
2. **Execution-scoped installation.**  :func:`set_tracer` installs a
   process-wide tracer (the daemon's ``--trace``); :func:`tracing`
   installs one for the calling thread only, and that is what
   ``execute()`` uses for ``Portfolio(trace=path)``.  A traced
   request's file therefore holds its own execution and nothing the
   event loop emits for other requests meanwhile.
3. **Multiprocess merge.**  Events carry *raw* monotonic microsecond
   timestamps (``time.perf_counter_ns``), which on Linux come from the
   machine-wide ``CLOCK_MONOTONIC`` and are therefore directly
   comparable between a fork parent and its workers.  Workers collect
   into an in-memory sink, ship the events back on the result record,
   and the parent's timeline file normalises everything against one
   trace epoch at write time — so the merged file is a single coherent
   timeline across processes.
4. **Crash-tolerant output.**  The file is written incrementally, one
   event per line.  The trace-event spec explicitly allows the
   trailing ``]`` to be missing, so a trace cut short by a crash still
   loads.

File format: line 1 is ``[``; every following line is one complete
JSON event object followed by a comma.  :func:`read_trace` (used by
``repro trace-summary``) accepts that form, a closed array, and plain
one-object-per-line JSONL.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

from .events import Channel, Event, read_jsonl

__all__ = ["SPANS", "tracer", "set_tracer", "tracing", "read_trace"]

#: The span channel.
SPANS = Channel("trace", timeline=True)

#: The calling thread's tracer (the no-op sink unless tracing is on).
tracer = SPANS.current
#: Install a tracer process-wide (``None`` disables); returns the
#: previous one.
set_tracer = SPANS.set_default
#: Context manager: trace the calling thread — and the pool workers of
#: the portfolios it executes — to a path or an existing sink.
tracing = SPANS.scoped


def read_trace(path: Union[str, Path]) -> Iterator[Event]:
    """Yield events from a trace file written by this module.

    An empty file yields nothing; a truncated final line — a crashed
    or still-running writer — is dropped, and corruption anywhere else
    raises (the checkpoint tolerance rule, :func:`repro.obs.events.
    read_jsonl` with ``strict=True``).
    """
    return read_jsonl(path, strict=True, kind="trace")
