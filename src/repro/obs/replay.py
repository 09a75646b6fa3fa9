"""Replay engine: re-run a decision recording and audit every step.

A recording (see :mod:`repro.obs.recorder`) is a complete decision
transcript — merges, refinement starting assignments, every move with
its claimed gain/cut/balance.  This module re-applies that transcript
against fresh structures built from the *finest netlist only*:

* coarse netlists are **rebuilt**, not trusted: the ``merge`` events of
  each confirmed ``level`` reconstruct the clustering (clusters are
  numbered in event order, then unmatched modules take the remaining
  ids ascending) and :func:`repro.clustering.induce` — deterministic
  given a clustering — produces the coarse netlist;
* each ``fm`` block builds a fresh
  :class:`~repro.partition.PartitionState` from the recorded ``init``
  assignment and replays the move stream, checking the engine's
  incremental cut / gain / balance bookkeeping *per move* against the
  state's independent implementation;
* ``pass`` boundaries roll back to the recorded best prefix and check
  the post-rollback cut; ``batch``/``polish`` events (written by the
  batch engine of the since-removed ``mlb`` algorithm) apply its flips
  and check its cut reductions;
* the ``result`` footer is the bit-identity target: its assignment
  must reproduce the recorded full-netlist cut when re-measured from
  scratch, and must equal one of the root-level blocks' final
  assignments (the portfolio keeps the best candidate, so *which*
  block is not recorded — membership is the contract).

Because both refinement engines wrote the same vocabulary, replaying
an old ``mlb`` recording audits the batch engine's cuts with the
scalar state arithmetic, and replaying an exact-engine recording
audits its incremental bookkeeping the same way.

Netlist registry: rebuilt coarse netlists are keyed by module count
(coarsening strictly shrinks the count, and v-cycle chains re-register
their own levels before referencing them), latest registration wins.
Area comparisons are exact for sequential moves (identical arithmetic
order) and tolerance-based for batched events (cumulative sums
reassociate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ReproError
from ..hypergraph import Hypergraph
from .recorder import group_starts, read_record

__all__ = ["ReplayError", "ReplayReport", "clustering_from_merges",
           "replay_events", "replay_recording"]

#: Absolute tolerance for area checks on batched (reassociated) sums.
_AREA_EPS = 1e-6


class ReplayError(ReproError):
    """A recording's bookkeeping does not survive re-execution."""


@dataclass
class ReplayReport:
    """Outcome of replaying one recording."""

    starts: int = 0
    fm_blocks: int = 0
    moves: int = 0
    batches: int = 0
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
            f"refinement block(s), {self.moves} move(s), "
            f"{self.batches} batch/polish commit(s), {self.levels} "
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

    Clusters take ids in event order (``v`` and, when ``w >= 0``,
    ``w`` join cluster ``k`` for the ``k``-th event); the modules no
    event touched become singleton clusters in ascending module order
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


def _active_nets_list(hg: Hypergraph, max_net_size: int) -> List[int]:
    return [e for e in hg.all_nets() if hg.net_size(e) <= max_net_size]


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
        self.block_moves: List[Tuple[int, int]] = []   # (module, src)
        self.root_finals: List[List[int]] = []
        self.block_n = 0

    def _fail(self, msg: str) -> None:
        self.report.mismatches.append(f"{self.label}: {msg}")

    def _close_block(self) -> None:
        if self.state is None:
            return
        if self.verify_states:
            self.state.verify()
        if self.block_n == self.root.num_modules:
            self.root_finals.append(list(self.state.part_of))
        self.state = None
        self.block_moves = []

    # -- event handlers --------------------------------------------------

    def on_merge(self, ev) -> None:
        self.pending.append((ev["v"], ev["w"]))
        self.report.merges += 1

    def on_level(self, ev) -> None:
        from ..clustering import induce
        fine = self.netlists.get(ev["n"])
        if fine is None:
            self._fail(f"level {ev.get('l')}: no rebuilt netlist with "
                       f"{ev['n']} modules")
            self.pending = []
            return
        clustering = clustering_from_merges(fine.num_modules, self.pending)
        self.pending = []
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
        self.pending = []   # merges of a discarded (no-progress) match
        hg = self.netlists.get(ev["n"])
        if hg is None:
            self._fail(f"fm block: no rebuilt netlist with {ev['n']} "
                       f"modules (levels missing from recording?)")
            return
        init = ev["init"]
        if len(init) != hg.num_modules:
            self._fail(f"fm block: init length {len(init)} != "
                       f"{hg.num_modules} modules")
            return
        assignment = [1 if ch == "1" else 0 for ch in init]
        active = _active_nets_list(hg, ev["mns"])
        self.state = PartitionState(hg, Partition(assignment, 2),
                                    active_nets=active)
        self.block_n = ev["n"]
        self.block_moves = []
        self.report.fm_blocks += 1
        if "c" in ev and self.state.cut_weight != ev["c"]:
            self._fail(f"fm block ({ev['n']} modules): initial internal "
                       f"cut {self.state.cut_weight} != recorded "
                       f"{ev['c']}")

    def on_mv(self, ev) -> None:
        state = self.state
        if state is None:
            self._fail(f"mv event outside any fm block: {ev}")
            return
        m, src = ev["m"], ev["s"]
        if state.part_of[m] != src:
            self._fail(f"mv {ev['i']}: module {m} is on side "
                       f"{state.part_of[m]}, recording says {src}")
            return
        before = state.cut_weight
        state.move(m, 1 - src)
        self.block_moves.append((m, src))
        self.report.moves += 1
        if state.cut_weight != ev["c"]:
            self._fail(f"mv {ev['i']} (module {m}): cut "
                       f"{state.cut_weight} != recorded {ev['c']}")
        if before - state.cut_weight != ev["g"]:
            self._fail(f"mv {ev['i']} (module {m}): gain "
                       f"{before - state.cut_weight} != recorded "
                       f"{ev['g']}")
        if "a0" in ev and state.part_area[0] != ev["a0"]:
            self._fail(f"mv {ev['i']} (module {m}): side-0 area "
                       f"{state.part_area[0]} != recorded {ev['a0']}")

    def on_pass(self, ev) -> None:
        state = self.state
        if state is None:
            self._fail(f"pass event outside any fm block: {ev}")
            return
        if not ev.get("np"):
            # Sequential pass: roll back to the recorded best prefix.
            k = ev["k"]
            for m, original in reversed(self.block_moves[k:]):
                state.move(m, original)
        if state.cut_weight != ev["c"]:
            self._fail(f"pass {ev['p']}: post-rollback cut "
                       f"{state.cut_weight} != recorded {ev['c']}")
        self.block_moves = []

    def on_batch(self, ev) -> None:
        state = self.state
        if state is None:
            self._fail(f"{ev['t']} event outside any fm block: {ev}")
            return
        for m in ev["mods"]:
            state.move(m, 1 - state.part_of[m])
        self.report.batches += 1
        if state.cut_weight != ev["c"]:
            self._fail(f"{ev['t']} ({len(ev['mods'])} modules): cut "
                       f"{state.cut_weight} != recorded {ev['c']}")
        if "a0" in ev and abs(state.part_area[0] - ev["a0"]) > _AREA_EPS:
            self._fail(f"{ev['t']}: side-0 area {state.part_area[0]} "
                       f"!= recorded {ev['a0']}")

    def on_result(self, ev) -> None:
        from ..partition import Partition, cut
        self._close_block()
        assign = ev.get("assign")
        if assign is None:
            return
        k = ev.get("k", 2)
        assignment = ([int(ch) for ch in assign] if isinstance(assign, str)
                      else list(assign))
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
            "merge": machine.on_merge, "level": machine.on_level,
            "fm": machine.on_fm, "mv": machine.on_mv,
            "pass": machine.on_pass, "batch": machine.on_batch,
            "polish": machine.on_batch, "result": machine.on_result,
        }
        for ev in blocks[index]:
            handler = handlers.get(ev.get("t"))
            if handler is not None:
                handler(ev)
        machine._close_block()
    return report


def replay_recording(path: Union[str, Path], hg: Hypergraph,
                     verify_states: bool = False) -> ReplayReport:
    """Replay the recording file at ``path`` against ``hg``."""
    return replay_events(list(read_record(path)), hg,
                         verify_states=verify_states)
