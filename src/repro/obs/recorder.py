"""Decision-level flight recorder: *what* the partitioner chose.

The tracing layer (:mod:`repro.obs.trace`) records where the *time*
went; this module records where the *decisions* went — which pair the
matcher merged, which module each FM/CLIP pass moved, where a pass
rolled back, which batch the numpy engine committed.  A recording is
the complete decision transcript of a portfolio run: enough to replay
every refinement block against a fresh
:class:`~repro.partition.PartitionState` (see
:mod:`repro.obs.replay`), and enough to align two runs and name the
first decision where they diverged (:mod:`repro.obs.diffrun`).

Design constraints, in priority order:

1. **Zero overhead when disabled.**  The module singleton defaults to
   :class:`NoopRecorder` with ``enabled = False``; every emit site in
   the kernels samples the singleton once per call and guards each
   event behind ``rec.enabled``.  The inlined linked-list FM loop is
   not instrumented at all — when recording is live the engine routes
   through the generic loop (which replays the identical operation
   sequence), so the hot path gains not a single instruction.
2. **Recording never perturbs results.**  No RNG draws, no reordering,
   no behavioural branches beyond the loop-dispatch above (which is
   bit-identical by contract).  The same seed must produce the same
   cuts with recording on or off.
3. **Seed-stable streams.**  Events are compact JSON objects with a
   one-letter ``"t"`` discriminator and short keys, one per line, in
   decision order.  Under a parallel executor each start's events are
   buffered in the worker and re-emitted as one contiguous block, so a
   recording is stable *modulo start-block order*; readers group by
   the ``start`` event's ``i`` field before comparing.

Event vocabulary (schema version 1; DESIGN.md §16 is normative):

``{"t":"start","i":..,"seed":..,"alg":..}``
    Header of one portfolio start; ``alg`` names the algorithm.
    Recordings written while a process-global kernel mode existed also
    carry a ``mode`` field, which readers ignore.
``{"t":"merge","v":..,"w":..}``
    The matcher opened a cluster seeded by module ``v`` and merged
    module ``w`` into it (``w = -1``: ``v`` stayed a singleton by
    decision, not by leftover).  Cluster ids are implicit: clusters
    are numbered in event order, then unmatched modules take the
    remaining ids in ascending module order.
``{"t":"level","l":..,"n":..,"c":..,"cn":..}``
    A coarsening level was *kept*: ``n`` fine modules clustered into
    ``c`` coarse modules spanning ``cn`` coarse nets.  Confirms the
    preceding run of ``merge`` events; merges not followed by a
    ``level`` event were discarded by the builder's stopping rule.
``{"t":"cycle","c":..}``
    A v-cycle began (its restricted coarsening re-emits merge/level
    events for its own chain).
``{"t":"repair","n":..}``
    The numpy engine's balance repair moved ``n`` modules before
    refinement began (the repaired assignment is what the following
    ``fm`` event records).
``{"t":"fm","l":..,"n":..,"mns":..,"np":..,"clip":..,"c":..,
  "init":"0101..."}``
    A refinement block began on the ``n``-module netlist: ``init`` is
    the full starting assignment (post rebalance/projection — replay
    never re-derives RNG-dependent work), ``c`` the internal cut on
    nets of at most ``mns`` pins, ``np`` 1 when the batched numpy
    engine runs it, ``clip`` 1 for CLIP bucket preprocessing, ``l``
    the hierarchy level (-1 outside refinement proper).
``{"t":"mv","i":..,"m":..,"s":..,"g":..,"c":..,"a0":..}``
    Sequential engines: move ``i`` of the current pass moved module
    ``m`` off side ``s`` with bucket gain ``g``, leaving internal cut
    ``c`` and side-0 area ``a0``.
``{"t":"pass","p":..,"k":..,"mv":..,"c":..}``
    Pass boundary: pass ``p`` attempted ``mv`` moves, kept the best
    prefix of ``k`` (the rest rolled back), internal cut after
    rollback ``c``.  The numpy engine emits ``k == mv`` (its commits
    are already monotone) plus ``"np":1``.
``{"t":"batch","r":..,"mods":[..],"c":..}``
    Numpy engine: in round ``r`` this batch of modules flipped sides
    together, leaving internal cut ``c``.
``{"t":"polish","mods":[..],"c":..}``
    Numpy engine: the scalar polish walk kept exactly these flips (in
    order), leaving internal cut ``c``.
``{"t":"result","i":..,"cut":..,"assign":"0101..."}``
    Footer of one start: the full-netlist cut and final assignment the
    portfolio recorded — the replay engine's bit-identity target.  A
    k-way result adds ``"k"``; its ``assign`` is one digit per module
    for ``k <= 10`` and a list of part ids beyond.

Reading uses the same tolerant JSONL discipline as the run ledger and
the access log: corrupt or truncated lines are skipped with a warning,
never raised.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .ledger import read_jsonl_objects

__all__ = ["NoopRecorder", "Recorder", "BufferRecorder",
           "JsonlRecordWriter", "recorder", "set_recorder", "recording",
           "read_record", "group_starts"]

#: Event types that *are* decisions (the diff alignment set); the rest
#: are structural markers and verification anchors.
DECISION_EVENTS = ("merge", "mv", "batch", "polish")


class NoopRecorder:
    """The disabled recorder: every operation is a no-op.

    ``enabled`` is a class attribute so emit sites pay one attribute
    load to skip instrumentation entirely.
    """

    __slots__ = ()
    enabled = False
    #: Hierarchy level stamped by the ML driver (see :class:`Recorder`).
    level = -1

    def emit(self, event: Dict[str, object]) -> None:
        pass

    def close(self) -> None:
        pass


class Recorder(NoopRecorder):
    """Base of the live recorders.

    ``level`` is mutable shared context: the multilevel driver stamps
    the current hierarchy level before each refinement call so the
    engine can tag its ``fm`` event without threading an argument
    through every signature.
    """

    __slots__ = ("level",)
    enabled = True

    def __init__(self) -> None:
        self.level = -1

    def emit(self, event: Dict[str, object]) -> None:
        raise NotImplementedError


class BufferRecorder(Recorder):
    """Collect events in memory — the per-start recorder a parallel
    worker installs so a start's decisions travel back to the parent
    as one contiguous block (mirroring ``BufferTracer``)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict[str, object]] = []

    def emit(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear the buffered events."""
        out = self.events
        self.events = []
        return out


class JsonlRecordWriter(Recorder):
    """Stream events to a JSONL file, one compact object per line.

    Thread-safe: the service absorbs worker buffers from executor
    threads.  Unlike the trace writer there is no timestamp column —
    decision streams are ordered by position, not time.
    """

    __slots__ = ("path", "_file", "_lock")

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = str(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, object]) -> None:
        line = json.dumps(event, separators=(",", ":"))
        with self._lock:
            if not self._file.closed:
                self._file.write(line + "\n")

    def emit_block(self, events: List[Dict[str, object]]) -> None:
        """Append a drained start block atomically (no interleaving
        with blocks absorbed from other worker threads)."""
        text = "".join(json.dumps(e, separators=(",", ":")) + "\n"
                       for e in events)
        with self._lock:
            if not self._file.closed:
                self._file.write(text)

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


_NOOP = NoopRecorder()
_ACTIVE: NoopRecorder = _NOOP


def recorder() -> NoopRecorder:
    """The process's active recorder (the no-op singleton when
    recording is off).  Emit sites sample this once per call."""
    return _ACTIVE


def set_recorder(rec: Optional[NoopRecorder]) -> NoopRecorder:
    """Install ``rec`` (``None`` restores the no-op) and return the
    previously active recorder."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = rec if rec is not None else _NOOP
    return previous


@contextmanager
def recording(target: Union[None, str, Path, NoopRecorder]):
    """Activate decision recording for the dynamic extent.

    ``target`` may be a path (a :class:`JsonlRecordWriter` is created,
    and closed on exit), an existing recorder instance (not closed —
    the caller owns it), or ``None`` (no-op, so call sites need no
    conditional).  Restores the previously active recorder on exit.
    """
    if target is None:
        yield _ACTIVE
        return
    if isinstance(target, NoopRecorder):
        rec = target
        owns = False
    else:
        rec = JsonlRecordWriter(target)
        owns = True
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)
        if owns:
            rec.close()


def read_record(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Tolerantly yield the events of a recording file, in file order."""
    return read_jsonl_objects(path, kind="record")


def group_starts(events) -> Dict[int, List[Dict[str, object]]]:
    """Group a recording's events into per-start blocks keyed by start
    index.

    A parallel executor absorbs start blocks in completion order, so
    file order is not seed-stable — but block *contents* are.  Events
    before the first ``start`` header (there are none in well-formed
    recordings) land under index ``-1``.
    """
    blocks: Dict[int, List[Dict[str, object]]] = {}
    current = -1
    for event in events:
        if event.get("t") == "start":
            idx = event.get("i")
            current = idx if isinstance(idx, int) else -1
        blocks.setdefault(current, []).append(event)
    return blocks
