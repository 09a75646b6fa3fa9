"""Decision-level flight recorder: *what* the partitioner chose.

The tracing layer (:mod:`repro.obs.trace`) records where the *time*
went; this module records where the *decisions* went: the pairs each
Match call formed (the paper's Fig. 3) and the move sequence and best
prefix of each FM/CLIP pass (Fig. 2).  Everything else a reader shows
(each move's side and cut, the merges one by one) is derived from
those two lists.  A recording is the complete decision transcript of
a portfolio run: enough to replay every refinement block against a
fresh :class:`~repro.partition.PartitionState` (see
:mod:`repro.obs.replay`), and enough to align two runs and name the
first decision where they diverged (:mod:`repro.obs.diffrun`).

Design constraints, in priority order:

1. **Zero overhead when disabled.**  :func:`recorder` returns the
   no-op sink (``enabled = False``) unless recording is on; every emit
   site samples it once per call and guards each event behind
   ``rec.enabled``.  Neither FM pass loop holds a recorder: both hand
   back each move as a ``(module, side, gain)`` triple, and
   :func:`~repro.fm.engine.fm_bipartition` writes one ``pass`` event
   per pass from them.  Match writes one ``match`` event per call.
2. **Recording never perturbs results.**  No RNG draws, no
   reordering, no behavioural branches: a recorded run takes the same
   FM loop as an unrecorded one, and the same seed produces the same
   cuts with recording on or off.
3. **Seed-stable streams.**  Events are compact JSON objects with a
   one-letter ``"t"`` discriminator and short keys, one per line, in
   decision order.  Under a parallel executor each start's events are
   buffered in the worker and re-emitted as one contiguous block, so a
   recording is stable *modulo start-block order*; readers group by
   the ``start`` event's ``i`` field before comparing.

Event vocabulary (schema version 1; DESIGN.md §16 is normative).
Written today:

``{"t":"start","i":..,"seed":..,"alg":..}``
    Header of one portfolio start; ``alg`` names the algorithm.
    Recordings written while a process-global kernel mode existed also
    carry a ``mode`` field, which readers ignore.
``{"t":"match","p":[v0,w0,v1,w1,..]}``
    One Match call: the ``k``-th pair opened cluster ``k``, seeded by
    module ``v`` with module ``w`` merged into it (``w = -1``: ``v``
    stayed a singleton by decision, not by leftover).  The modules no
    pair names take the remaining cluster ids in ascending module
    order.
``{"t":"level","l":..,"n":..,"c":..,"cn":..}``
    A coarsening level was *kept*: ``n`` fine modules clustered into
    ``c`` coarse modules spanning ``cn`` coarse nets.  Confirms the
    preceding ``match``; a match not followed by a ``level`` event was
    discarded by the builder's stopping rule.
``{"t":"cycle","c":..}``
    A v-cycle began (its restricted coarsening re-emits match/level
    events for its own chain).
``{"t":"fm","l":..,"n":..,"mns":..,"np":..,"clip":..,"c":..,
  "init":"0101..."}``
    A refinement block began on the ``n``-module netlist: ``init`` is
    the full starting assignment (post rebalance/projection — replay
    never re-derives RNG-dependent work), ``c`` the internal cut on
    nets of at most ``mns`` pins, ``clip`` 1 for CLIP bucket
    preprocessing, ``l`` the hierarchy level (-1 outside refinement
    proper).  ``np`` is always 0 today (1 marked the batch engine of
    the since-removed ``mlb`` algorithm).
``{"t":"pass","p":..,"k":..,"mv":..,"c":..,"a0":..,"m":[..],"g":[..]}``
    Pass ``p`` of the open block attempted ``mv`` moves: module
    ``m[i]`` moved to the other side, lowering the internal cut by
    ``g[i]``.  The pass kept the best prefix of ``k`` moves (the rest
    rolled back), leaving internal cut ``c`` and side-0 area ``a0``.
``{"t":"result","i":..,"cut":..,"assign":"0101..."}``
    Footer of one start: the full-netlist cut and final assignment the
    portfolio recorded — the replay engine's bit-identity target.  A
    k-way result adds ``"k"``; its ``assign`` is one digit per module
    for ``k <= 10`` and a list of part ids beyond.

Read only (older recordings; :func:`group_starts` also derives
``merge`` and ``mv`` from the list events above):

``{"t":"merge","v":..,"w":..}``
    One pair of a ``match`` event, in pair order.
``{"t":"mv","i":..,"m":..,"s":..,"g":..,"c":..}``
    Move ``i`` of the current pass moved module ``m`` off side ``s``,
    lowering the internal cut by ``g`` to ``c``.  Recordings written
    before the ``pass`` lists carry these, with ``a0`` (side-0 area
    after the move) and, older still, ``bg`` (the bucket gain), which
    readers ignore; their ``pass`` events carry no ``m``, ``g`` or
    ``a0``.
``{"t":"repair","n":..}``, ``{"t":"batch","r":..,"mods":[..],"c":..}``,
``{"t":"polish","mods":[..],"c":..}``
    The batch engine of the since-removed ``mlb`` algorithm: its
    balance repair moved ``n`` modules before refinement; in round
    ``r`` a batch of modules flipped sides together, or its scalar
    polish walk kept exactly these flips, leaving internal cut ``c``.
    Its ``pass`` events carry ``"np":1`` and ``k == mv``.

Recordings are the decision channel of the shared event pipeline
(:mod:`repro.obs.events`): the same sinks, the same execution-scoped
installation and worker transport as traces.  Reading uses the
lenient rule of the shared reader, like the run ledger and the access
log: corrupt or truncated lines are skipped with a warning, never
raised.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .events import Channel, Event, read_jsonl

__all__ = ["DECISIONS", "recorder", "set_recorder", "recording",
           "read_record", "group_starts", "match_error", "pass_error"]

#: Event types that *are* decisions (the diff alignment set), as
#: :func:`group_starts` hands them out; the rest are structural markers
#: and verification anchors.
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
    index, each block with its ``match`` and ``pass`` lists expanded
    into the ``merge`` and ``mv`` events they stand for.

    A parallel executor absorbs start blocks in completion order, so
    file order is not seed-stable — but block *contents* are.  Events
    before the first ``start`` header (there are none in well-formed
    recordings) land under index ``-1``.  This is the one entry point
    of every reader (replay, ``report --record``, ``diff-run``), so an
    old recording, whose ``merge`` and ``mv`` events are written out,
    reads the same as a new one.
    """
    blocks: Dict[int, List[Event]] = {}
    current = -1
    for event in events:
        if event.get("t") == "start":
            idx = event.get("i")
            current = idx if _is_int(idx) else -1
        blocks.setdefault(current, []).append(event)
    return {index: _expand(block) for index, block in blocks.items()}


def _is_int(value) -> bool:
    return type(value) is int


def _int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def match_error(ev: Event) -> Optional[str]:
    """Why the ``match`` event ``ev`` cannot be expanded into ``merge``
    events, or ``None`` if it can."""
    pairs = ev.get("p")
    if not _int_list(pairs) or len(pairs) % 2:
        return "p is not a flat list of (v, w) integer pairs"
    return None


def pass_error(ev: Event, n: int) -> Optional[str]:
    """Why the list-carrying ``pass`` event ``ev`` cannot be expanded
    into ``mv`` events in a refinement block of ``n`` modules, or
    ``None`` if it can."""
    modules, gains = ev.get("m"), ev.get("g")
    mv, k = ev.get("mv"), ev.get("k")
    if not (_int_list(modules) and _int_list(gains)):
        return "m and g are not lists of integers"
    if not len(modules) == len(gains) == mv:
        return (f"m holds {len(modules)} moves and g {len(gains)} gains, "
                f"mv says {mv!r}")
    if not (_is_int(k) and 0 <= k <= mv):
        return f"best prefix k={k!r} is not in 0..{mv}"
    bad = next((v for v in modules if not 0 <= v < n), None)
    if bad is not None:
        return f"module {bad} is out of range for {n} modules"
    return None


def _expand(block: List[Event]) -> List[Event]:
    """``block`` with each well-formed ``match`` event replaced by its
    ``merge`` events and each well-formed list-carrying ``pass`` event
    preceded by its ``mv`` events (and stripped of its lists).

    A move's side comes from the block's ``init`` and the moves and
    rollbacks before it; its cut is the block's starting cut minus the
    gains of every move since, rolled-back ones excluded.  Malformed
    list events, and ``pass`` lists in a block whose ``fm`` event has
    no string ``init`` and integer ``c``, pass through unexpanded, for
    replay to name.
    """
    out: List[Event] = []
    sides: Optional[List[int]] = None   # the open block's assignment
    cut = 0                             # its internal cut, pass start
    for ev in block:
        t = ev.get("t")
        if t == "match" and match_error(ev) is None:
            pairs = ev["p"]
            out.extend({"t": "merge", "v": pairs[j], "w": pairs[j + 1]}
                       for j in range(0, len(pairs), 2))
            continue
        if t == "fm":
            init, cut = ev.get("init"), ev.get("c")
            sides = ([1 if ch == "1" else 0 for ch in init]
                     if isinstance(init, str) and _is_int(cut) else None)
        elif (t == "pass" and "m" in ev and sides is not None
              and pass_error(ev, len(sides)) is None):
            running = cut
            for i, (v, g) in enumerate(zip(ev["m"], ev["g"])):
                side = sides[v]
                sides[v] = 1 - side
                running -= g
                out.append({"t": "mv", "i": i, "m": v, "s": side, "g": g,
                            "c": running})
            k = ev["k"]
            for v in ev["m"][k:]:
                sides[v] ^= 1
            cut -= sum(ev["g"][:k])
            ev = {key: value for key, value in ev.items()
                  if key not in ("m", "g")}
        out.append(ev)
    return out
