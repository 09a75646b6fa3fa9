"""Replay engine: re-run a decision recording and audit every step.

A recording (see :mod:`repro.obs.recorder`) is a complete decision
transcript — Match's pairs, refinement starting assignments, every
pass's moves with the gain the engine claimed for each.  This module
re-applies that transcript, as
:func:`~repro.obs.recorder.group_starts` hands it out (an old
recording upgraded to the ``match`` and ``pass`` lists), against fresh
structures built from the *finest netlist only*:

* coarse netlists are **rebuilt**, not trusted: the pairs of the
  ``match`` event each ``level`` confirms reconstruct the clustering
  (clusters are numbered in pair order, then unmatched modules take
  the remaining ids ascending) and :func:`repro.clustering.induce` —
  deterministic given a clustering — produces the coarse netlist;
* each ``fm`` block builds a fresh
  :class:`~repro.partition.PartitionState` from the recorded ``init``
  assignment; each ``pass`` applies its move list, checking the gain
  the FM pass (compiled or Python) computed for each move against the
  state's independent implementation, then rolls back to the recorded
  best prefix and checks the post-rollback cut and side-0 area;
* the ``result`` footer is the bit-identity target: its assignment
  must reproduce the recorded full-netlist cut when re-measured from
  scratch, and must equal one of the root-level blocks' final
  assignments (the portfolio keeps the best candidate, so *which*
  block is not recorded — membership is the contract).

A malformed recording is reported, never raised: an event missing a
key or carrying one of the wrong type, a module id out of range, a
list event whose lists disagree, or an event kind replay does not
read (an old event the upgrade could not fold, or the batch-engine
events of the removed ``mlb`` algorithm) each become one named
mismatch.

Netlist registry: rebuilt coarse netlists are keyed by module count
(coarsening strictly shrinks the count, and v-cycle chains re-register
their own levels before referencing them), latest registration wins.
Area comparisons are exact: replay moves modules in the recorded
order, so its sums are the engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ReproError
from ..hypergraph import Hypergraph
from .recorder import group_starts, match_error, pass_error, read_record

__all__ = ["ReplayError", "ReplayReport", "clustering_from_merges",
           "replay_events", "replay_recording"]

#: The keys each replayed event kind must carry, with their types
#: (``None`` allowed where listed; a bool is not an int).
_FIELDS = {
    "match": (("p", list),),
    "level": (("n", int), ("c", int)),
    "fm": (("n", int), ("mns", (int, None)), ("c", int), ("init", str)),
    "pass": (("p", int), ("k", int), ("c", int)),
    "result": (("cut", int),),
}

#: Event kinds inside a refinement block: a malformed one ends the
#: block's audit.
_BLOCK_EVENTS = ("fm", "pass")


def _field_error(ev) -> Optional[str]:
    """The first required key of ``ev`` that is missing or mistyped."""
    t = ev.get("t")
    for key, kinds in _FIELDS[t]:
        if key not in ev:
            return f"{t} event lacks {key!r}"
        value = ev[key]
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        if not any(value is None if kind is None
                   else type(value) is kind for kind in kinds):
            return (f"{t} event: {key!r} is "
                    f"{type(value).__name__} {value!r}")
    return None


class ReplayError(ReproError):
    """A recording's bookkeeping does not survive re-execution."""


@dataclass
class ReplayReport:
    """Outcome of replaying one recording."""

    starts: int = 0
    fm_blocks: int = 0
    moves: int = 0
    merges: int = 0
    levels: int = 0
    results_verified: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [
            f"replayed {self.starts} start(s): {self.fm_blocks} "
            f"refinement block(s), {self.moves} move(s), {self.levels} "
            f"coarsening level(s) rebuilt from {self.merges} merge(s)",
            f"final partitions verified bit-identical: "
            f"{self.results_verified}/{self.starts}",
        ]
        if self.mismatches:
            lines.append(f"MISMATCHES ({len(self.mismatches)}):")
            lines.extend(f"  {m}" for m in self.mismatches[:20])
            if len(self.mismatches) > 20:
                lines.append(f"  ... and {len(self.mismatches) - 20} more")
        else:
            lines.append("bookkeeping audit clean: every recorded gain, "
                         "cut, and balance matched re-execution")
        return "\n".join(lines)


def clustering_from_merges(n: int, merges: List[Tuple[int, int]]):
    """Rebuild the matcher's clustering from its merge decisions.

    Clusters take ids in pair order (``v`` and, when ``w >= 0``,
    ``w`` join cluster ``k`` for the ``k``-th pair); the modules no
    pair names become singleton clusters in ascending module order
    — exactly the numbering discipline of
    :func:`repro.clustering.match`.
    """
    from ..clustering import Clustering
    cluster_of = [-1] * n
    num = 0
    for v, w in merges:
        cluster_of[v] = num
        if w >= 0:
            cluster_of[w] = num
        num += 1
    for v in range(n):
        if cluster_of[v] < 0:
            cluster_of[v] = num
            num += 1
    return Clustering(cluster_of)


class _StartReplay:
    """Replay state machine for one start block."""

    def __init__(self, root: Hypergraph, report: ReplayReport,
                 label: str, verify_states: bool = False):
        self.root = root
        self.report = report
        self.label = label
        self.verify_states = verify_states
        #: module count -> rebuilt netlist; latest registration wins.
        self.netlists: Dict[int, Hypergraph] = {root.num_modules: root}
        self.pending: List[Tuple[int, int]] = []
        self.state = None          # live PartitionState of the fm block
        self.root_finals: List[List[int]] = []
        #: The open block could not be replayed; skip its events.
        self.abandoned = False

    def _fail(self, msg: str) -> None:
        self.report.mismatches.append(f"{self.label}: {msg}")

    def _abandon(self, msg: str) -> None:
        """Name a fault that leaves the open block unreplayable, and
        skip the rest of it quietly until the next ``fm`` event."""
        self._fail(msg)
        self.state = None
        self.abandoned = True

    def _close_block(self) -> None:
        if self.state is None:
            return
        if self.verify_states:
            self.state.verify()
        if self.state.hg is self.root:
            self.root_finals.append(list(self.state.part_of))
        self.state = None

    # -- event handlers --------------------------------------------------

    def on_match(self, ev) -> None:
        problem = match_error(ev)
        if problem is not None:
            self._fail(f"match event: {problem}")
            return
        pairs = ev["p"]
        self.pending.extend(zip(pairs[::2], pairs[1::2]))
        self.report.merges += len(pairs) // 2

    def on_level(self, ev) -> None:
        from ..clustering import induce
        fine = self.netlists.get(ev["n"])
        if fine is None:
            self._fail(f"level {ev.get('l')}: no rebuilt netlist with "
                       f"{ev['n']} modules")
            self.pending = []
            return
        n = fine.num_modules
        merges, self.pending = self.pending, []
        bad = next((u for v, w in merges
                    for u in ((v, w) if w != -1 else (v,))
                    if not 0 <= u < n), None)
        if bad is not None:
            self._fail(f"level {ev.get('l')}: a merge names module {bad}, "
                       f"out of range for {n} modules")
            return
        clustering = clustering_from_merges(n, merges)
        if clustering.num_clusters != ev["c"]:
            self._fail(f"level {ev.get('l')}: reconstructed "
                       f"{clustering.num_clusters} clusters, recording "
                       f"says {ev['c']}")
            return
        coarse = induce(fine, clustering)
        if coarse.num_nets != ev.get("cn", coarse.num_nets):
            self._fail(f"level {ev.get('l')}: induced {coarse.num_nets} "
                       f"nets, recording says {ev['cn']}")
        self.netlists[coarse.num_modules] = coarse
        self.report.levels += 1

    def on_fm(self, ev) -> None:
        from ..partition import Partition, PartitionState
        self._close_block()
        self.abandoned = False
        self.pending = []   # merges of a discarded (no-progress) match
        hg = self.netlists.get(ev["n"])
        if hg is None:
            self._abandon(f"fm block: no rebuilt netlist with {ev['n']} "
                          f"modules (levels missing from recording?)")
            return
        init = ev["init"]
        if len(init) != hg.num_modules:
            self._abandon(f"fm block: init length {len(init)} != "
                          f"{hg.num_modules} modules")
            return
        assignment = [1 if ch == "1" else 0 for ch in init]
        self.state = PartitionState(hg, Partition(assignment, 2),
                                    active_nets=hg.active_nets(ev["mns"]))
        self.report.fm_blocks += 1
        if self.state.cut_weight != ev["c"]:
            self._fail(f"fm block ({ev['n']} modules): initial internal "
                       f"cut {self.state.cut_weight} != recorded "
                       f"{ev['c']}")

    def on_pass(self, ev) -> None:
        state = self.state
        if state is None:
            if not self.abandoned:
                self._fail("pass event outside any fm block")
            return
        problem = pass_error(ev, state.hg.num_modules)
        if problem is not None:
            # This pass's moves are lost, so the block's audit stops.
            self._abandon(f"pass {ev['p']}: {problem}")
            return
        modules = ev["m"]
        part_of = state.part_of
        for i, (m, gain) in enumerate(zip(modules, ev["g"])):
            before = state.cut_weight
            state.move(m, 1 - part_of[m])
            if before - state.cut_weight != gain:
                self._fail(f"pass {ev['p']}, move {i} (module {m}): gain "
                           f"{before - state.cut_weight} != recorded "
                           f"{gain}")
        for m in reversed(modules[ev["k"]:]):
            state.move(m, 1 - part_of[m])
        self.report.moves += len(modules)
        if state.cut_weight != ev["c"]:
            self._fail(f"pass {ev['p']}: post-rollback cut "
                       f"{state.cut_weight} != recorded {ev['c']}")
        if "a0" in ev and state.part_area[0] != ev["a0"]:
            self._fail(f"pass {ev['p']}: side-0 area "
                       f"{state.part_area[0]} != recorded {ev['a0']}")

    def on_result(self, ev) -> None:
        from ..partition import Partition, cut
        self._close_block()
        assign = ev.get("assign")
        if assign is None:
            return
        k = ev.get("k", 2)
        if isinstance(assign, str) and assign.isdigit():
            assignment = [int(ch) for ch in assign]
        elif isinstance(assign, list) and all(type(p) is int
                                              for p in assign):
            assignment = assign
        else:
            self._fail(f"result: assign {assign!r} is neither a digit "
                       f"string nor a list of part ids")
            return
        if type(k) is not int or not all(0 <= p < k for p in assignment):
            self._fail(f"result: assignment names a part outside the "
                       f"k={k!r} parts")
            return
        if len(assignment) != self.root.num_modules:
            self._fail(f"result: assignment length {len(assignment)} != "
                       f"{self.root.num_modules} modules")
            return
        measured = cut(self.root, Partition(assignment, k))
        if measured != ev["cut"]:
            self._fail(f"result: re-measured cut {measured} != recorded "
                       f"{ev['cut']}")
            return
        if self.root_finals and assignment not in self.root_finals:
            self._fail("result: final assignment matches no root-level "
                       "refinement block of this start")
            return
        self.report.results_verified += 1


def replay_events(events: Iterable[Dict[str, object]], hg: Hypergraph,
                  verify_states: bool = False) -> ReplayReport:
    """Replay a recording's events against finest netlist ``hg``."""
    report = ReplayReport()
    blocks = group_starts(events)
    # Index -1 holds events outside any ``start`` header — a library-
    # level recording (``with recording(...): ml_bipartition(...)``)
    # is one anonymous start.
    for index in sorted(blocks):
        report.starts += 1
        machine = _StartReplay(hg, report, f"start {index}",
                               verify_states=verify_states)
        handlers = {
            "match": machine.on_match, "level": machine.on_level,
            "fm": machine.on_fm, "pass": machine.on_pass,
            "result": machine.on_result,
        }
        for ev in blocks[index]:
            t = ev.get("t")
            handler = handlers.get(t)
            if handler is None:
                if t not in ("start", "cycle") and not machine.abandoned:
                    machine._abandon(f"unsupported event kind {t!r}")
                continue
            problem = _field_error(ev)
            if problem is None:
                handler(ev)
            elif t in _BLOCK_EVENTS:
                if t == "fm":
                    machine._close_block()   # the block before is whole
                machine._abandon(problem)
            else:
                machine._fail(problem)
        machine._close_block()
    return report


def replay_recording(path: Union[str, Path], hg: Hypergraph,
                     verify_states: bool = False) -> ReplayReport:
    """Replay the recording file at ``path`` against ``hg``."""
    return replay_events(list(read_record(path)), hg,
                         verify_states=verify_states)
