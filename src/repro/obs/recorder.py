"""Decision-level flight recorder: *what* the partitioner chose.

The tracing layer (:mod:`repro.obs.trace`) records where the *time*
went; this module records where the *decisions* went — which pair the
matcher merged, which module each FM/CLIP pass moved, where a pass
rolled back (and, in recordings of the since-removed ``mlb``
algorithm, which batch its numpy engine committed).  A recording is
the complete decision transcript of a portfolio run: enough to replay
every refinement block against a fresh
:class:`~repro.partition.PartitionState` (see
:mod:`repro.obs.replay`), and enough to align two runs and name the
first decision where they diverged (:mod:`repro.obs.diffrun`).

Design constraints, in priority order:

1. **Zero overhead when disabled.**  :func:`recorder` returns the
   no-op sink (``enabled = False``) unless recording is on; every emit
   site in the kernels samples it once per call and guards each event
   behind ``rec.enabled``.  The compiled FM pass is not
   instrumented at all — when recording is live the engine routes
   through the Python loop (which makes the identical operation
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
    ``m`` off side ``s``, lowering the internal cut by ``g`` to ``c``
    and leaving side-0 area ``a0``.  Recordings written before the
    bucket gain was dropped also carry ``bg``, which readers ignore.
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

Recordings are the decision channel of the shared event pipeline
(:mod:`repro.obs.events`): the same sinks, the same execution-scoped
installation and worker transport as traces.  Reading uses the
lenient rule of the shared reader, like the run ledger and the access
log: corrupt or truncated lines are skipped with a warning, never
raised.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Union

from .events import Channel, Event, read_jsonl

__all__ = ["DECISIONS", "recorder", "set_recorder", "recording",
           "read_record", "group_starts"]

#: Event types that *are* decisions (the diff alignment set); the rest
#: are structural markers and verification anchors.
DECISION_EVENTS = ("merge", "mv", "batch", "polish")

#: The decision channel.
DECISIONS = Channel("record")

#: The calling thread's recorder (the no-op sink unless recording is
#: on).  Emit sites sample this once per call.
recorder = DECISIONS.current
#: Install a recorder process-wide (``None`` restores the no-op);
#: returns the previous one.
set_recorder = DECISIONS.set_default
#: Context manager: record the calling thread's decisions — and those
#: of the pool workers of the portfolios it executes — to a path or an
#: existing sink; ``None`` is a pass-through.
recording = DECISIONS.scoped


def read_record(path: Union[str, Path]) -> Iterator[Event]:
    """Tolerantly yield the events of a recording file, in file order."""
    return read_jsonl(path, kind="record")


def group_starts(events) -> Dict[int, List[Event]]:
    """Group a recording's events into per-start blocks keyed by start
    index.

    A parallel executor absorbs start blocks in completion order, so
    file order is not seed-stable — but block *contents* are.  Events
    before the first ``start`` header (there are none in well-formed
    recordings) land under index ``-1``.
    """
    blocks: Dict[int, List[Event]] = {}
    current = -1
    for event in events:
        if event.get("t") == "start":
            idx = event.get("i")
            current = idx if isinstance(idx, int) else -1
        blocks.setdefault(current, []).append(event)
    return blocks


