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

Older recordings wrote each merge (``{"t":"merge","v":..,"w":..}``)
and each move (``{"t":"mv","i":..,"m":..,"s":..,"g":..,"c":..}``: module
``m`` left side ``s``, lowering the internal cut by ``g`` to ``c``) out
as its own event.  :func:`group_starts` folds them into the events
above as it reads them (``_upgrade`` states the rule).  What does not
fold stays as it is, for replay to name, and so do the ``repair``,
``batch`` and ``polish`` events of the removed ``mlb`` algorithm's
batch engine.

Recordings are the decision channel of the shared event pipeline
(:mod:`repro.obs.events`): the same sinks, the same execution-scoped
installation and worker transport as traces.  Reading uses the
lenient rule of the shared reader, like the run ledger and the access
log: corrupt or truncated lines are skipped with a warning, never
raised.
"""

from __future__ import annotations

from itertools import groupby
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .events import Channel, Event, read_jsonl

__all__ = ["DECISIONS", "recorder", "set_recorder", "recording",
           "read_record", "group_starts", "match_error", "pass_error",
           "BlockCursor"]

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
    index, each block upgraded to the written vocabulary.

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
    return {index: _upgrade(block) for index, block in blocks.items()}


def _is_int(value) -> bool:
    return type(value) is int


def _int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def match_error(ev: Event) -> Optional[str]:
    """Why the ``match`` event ``ev`` holds no list of pairs, or
    ``None`` if it does."""
    pairs = ev.get("p")
    if not _int_list(pairs) or len(pairs) % 2:
        return "p is not a flat list of (v, w) integer pairs"
    return None


def pass_error(ev: Event, n: int) -> Optional[str]:
    """Why the ``pass`` event ``ev`` holds no valid move list for a
    refinement block of ``n`` modules, or ``None`` if it does."""
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


class BlockCursor:
    """One refinement block's assignment and internal cut, carried from
    pass to pass: what each move's side and running cut derive from."""

    def __init__(self, sides: List[int], cut: int):
        self.sides, self.cut = sides, cut

    @classmethod
    def open(cls, fm: Event) -> Optional["BlockCursor"]:
        """The cursor at the start of the block ``fm`` opens, or
        ``None`` if ``fm`` has no string ``init`` and integer ``c``."""
        init, cut = fm.get("init"), fm.get("c")
        if not (isinstance(init, str) and _is_int(cut)):
            return None
        return cls([1 if ch == "1" else 0 for ch in init], cut)

    def moves(self, ev: Event) -> Optional[List[Tuple[int, int, int]]]:
        """``(module, side it left, internal cut after)`` of each move
        of the ``pass`` event ``ev``, leaving the cursor at the pass's
        best prefix; ``None`` (the cursor unmoved) if ``ev`` has no
        valid move list."""
        if pass_error(ev, len(self.sides)) is not None:
            return None
        sides, cut, out = self.sides, self.cut, []
        for v, g in zip(ev["m"], ev["g"]):
            side = sides[v]
            sides[v] = 1 - side
            cut -= g
            out.append((v, side, cut))
        k = ev["k"]
        for v in ev["m"][k:]:
            sides[v] ^= 1
        if k:
            self.cut = out[k - 1][2]
        return out


def _upgrade(block: List[Event]) -> List[Event]:
    """``block`` in the written vocabulary: the one reader of the old
    ``merge`` and ``mv`` events.  A run of ``merge`` events becomes one
    ``match``; the ``mv`` run before a list-less ``pass`` becomes its
    ``m`` and ``g`` lists if every move is well formed and its ``s`` and
    ``c`` are the side and running cut derived from the block's
    ``init`` and ``c`` and the gains before it.  The moves' ``bg`` and
    ``a0`` and the start's ``mode`` are dropped; a block written today
    comes back unchanged."""
    out: List[Event] = []
    moves: List[Event] = []           # an mv run waiting for its pass
    cursor: Optional[BlockCursor] = None
    for kind, run in groupby(block, key=lambda ev: ev.get("t")):
        run = list(run)
        if kind == "mv":
            moves = run
            continue
        if kind == "merge":
            pairs = [u for ev in run for u in (ev.get("v"), ev.get("w"))]
            if _int_list(pairs):
                run = [{"t": "match", "p": pairs}]
        for ev in run:
            if kind == "start" and "mode" in ev:
                ev = {key: value for key, value in ev.items()
                      if key != "mode"}
            elif kind == "fm":
                cursor = BlockCursor.open(ev)
            elif kind == "pass" and "m" not in ev and cursor is not None:
                folded = _fold_moves(moves, ev, cursor)
                if folded is not None:
                    ev, moves = folded, []
            out.extend(moves)
            moves = []
            out.append(ev)
    out.extend(moves)
    return out


def _fold_moves(moves: List[Event], ev: Event,
                cursor: BlockCursor) -> Optional[Event]:
    """The list-less ``pass`` event ``ev`` carrying the ``mv`` events
    before it as its lists, or ``None`` if they do not fold.  A pass
    whose own fields are malformed folds as it is, for replay to name
    (and to end the block's audit at)."""
    if not all(mv.get("i") == i and all(_is_int(mv.get(key))
                                        for key in "imsgc")
               for i, mv in enumerate(moves)):
        return None
    folded = dict(ev, m=[mv["m"] for mv in moves],
                  g=[mv["g"] for mv in moves])
    derived = cursor.moves(folded)
    if derived is None or derived == [(mv["m"], mv["s"], mv["c"])
                                      for mv in moves]:
        return folded
    return None
