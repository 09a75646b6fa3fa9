"""Convergence analytics: what the per-pass FM telemetry says.

The tracing layer already records everything the paper's Table VIII
(CPU breakdown per phase) and its convergence discussion need — this
module reduces a trace to those shapes:

* **phase split** — where the traced time went: coarsening, initial
  partitioning, refinement, and everything else, as seconds and
  percentages of the ``ml.bipartition`` total (the Table VIII shape);
* **refinement attribution by level** — for each hierarchy level
  (keyed by module count, aggregated over every ML start in the
  trace): spans, refinement seconds, FM passes, moves, and the min /
  mean cut reached there.  Moves are attributed by interval
  containment — an ``fm.pass`` belongs to the ``ml.refine.level`` (or
  ``ml.initial``) span of the same process whose ``[ts, ts+dur]``
  window contains it;
* **cut vs pass** — how the cut evolves with FM pass number inside a
  refinement call, averaged over all calls: the convergence curve
  (most of the gain lands in the first pass or two; CLIP's whole
  argument).

All counters are pure functions of the move sequence, so the tables
are stable for a fixed seed — golden-testable, and safe to diff
across commits.

The *decision* recordings of :mod:`repro.obs.recorder` enable a finer
pair of views (``repro report --record``):

* **gain distribution by pass** — a histogram of per-move cut gains
  keyed by pass number, showing the paper's convergence claim at move
  granularity: early passes are dominated by positive gains, later
  passes churn around zero;
* **cut vs move index** — the raw convergence curve: internal cut
  after every decision, downsampled per start.  This is the curve
  ``repro diff-run`` overlays for two recordings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram
from .recorder import group_starts, read_record
from .trace import read_trace

__all__ = ["ConvergenceReport", "convergence_from_events",
           "convergence_report", "DecisionReport",
           "decision_from_events", "decision_report", "GAIN_BUCKETS"]

#: Gain-histogram bucket upper bounds: FM gains are small signed ints,
#: so a handful of buckets around zero resolves the whole shape.
GAIN_BUCKETS = (-4.0, -1.0, 0.0, 1.0, 4.0)

Row = Sequence[object]
Table = Tuple[str, Sequence[str], List[Row]]


@dataclass
class _LevelAgg:
    modules: int
    spans: int = 0
    total_us: int = 0
    passes: int = 0
    moves: int = 0
    cuts: List[int] = field(default_factory=list)


@dataclass
class _PassAgg:
    number: int
    count: int = 0
    cut_before: List[int] = field(default_factory=list)
    cut_after: List[int] = field(default_factory=list)
    gain: List[int] = field(default_factory=list)
    moves_attempted: int = 0
    moves_committed: int = 0


@dataclass
class ConvergenceReport:
    """The reduced convergence view of one trace."""

    events: int = 0
    ml_runs: int = 0
    total_seconds: float = 0.0
    #: phase name -> microseconds inside ``ml.bipartition`` spans.
    phase_us: Dict[str, int] = field(default_factory=dict)
    levels: List[_LevelAgg] = field(default_factory=list)
    passes: List[_PassAgg] = field(default_factory=list)

    # -- table views ----------------------------------------------------

    def phase_table(self) -> Table:
        total = sum(self.phase_us.values())
        rows: List[Row] = []
        for name in ("coarsening", "initial", "refinement", "other"):
            us = self.phase_us.get(name, 0)
            pct = 100.0 * us / total if total else 0.0
            rows.append([name, round(us / 1e6, 4), round(pct, 1)])
        return ("CPU breakdown by phase (Table VIII shape)",
                ["phase", "seconds", "% of total"], rows)

    def level_table(self) -> Table:
        rows: List[Row] = [
            [agg.modules, agg.spans, round(agg.total_us / 1e6, 4),
             agg.passes, agg.moves,
             min(agg.cuts) if agg.cuts else None,
             round(mean(agg.cuts), 1) if agg.cuts else None]
            for agg in self.levels]
        return ("Refinement attribution by level (coarsest first)",
                ["modules", "spans", "seconds", "passes", "moves",
                 "min cut", "mean cut"], rows)

    def pass_table(self) -> Table:
        rows: List[Row] = [
            [agg.number, agg.count,
             round(mean(agg.cut_before), 1) if agg.cut_before else None,
             round(mean(agg.cut_after), 1) if agg.cut_after else None,
             round(mean(agg.gain), 2) if agg.gain else None,
             agg.moves_committed,
             agg.moves_attempted - agg.moves_committed]
            for agg in self.passes]
        return ("Cut vs FM pass (mean over all refinement calls)",
                ["pass", "calls", "mean cut before", "mean cut after",
                 "mean gain", "moves committed", "rolled back"], rows)

    def tables(self) -> List[Table]:
        out: List[Table] = []
        if self.phase_us:
            out.append(self.phase_table())
        if self.levels:
            out.append(self.level_table())
        if self.passes:
            out.append(self.pass_table())
        return out

    def render(self) -> str:
        """Plain-text rendering (the ``repro report`` building block)."""
        from ..harness.formatting import format_table
        tables = self.tables()
        if not tables:
            return ("no convergence telemetry in trace "
                    "(no fm.pass / ml.* spans)")
        parts = [f"{self.events} events, {self.ml_runs} ML run(s), "
                 f"{self.total_seconds:.3f}s traced"]
        for title, headers, rows in tables:
            parts.append(format_table(headers, rows, title=title))
        return "\n\n".join(parts)


def _attribute_moves(containers: List[Tuple[int, int, int, "_LevelAgg"]],
                     fm_passes: List[Tuple[int, int, Dict[str, object]]]
                     ) -> None:
    """Sum fm.pass move counts into their containing level spans.

    ``containers`` is ``(pid, start, end, agg)``; attribution is by
    interval containment within the same process.  Mutates each
    container's ``agg`` in place.
    """
    by_pid: Dict[int, List[Tuple[int, int, object]]] = {}
    for pid, start, end, agg in containers:
        by_pid.setdefault(pid, []).append((start, end, agg))
    starts_by_pid = {}
    for pid, spans in by_pid.items():
        spans.sort(key=lambda s: s[0])
        starts_by_pid[pid] = [s[0] for s in spans]
    for pid, ts, args in fm_passes:
        spans = by_pid.get(pid)
        if not spans:
            continue
        i = bisect_right(starts_by_pid[pid], ts) - 1
        if i < 0:
            continue
        start, end, agg = spans[i]
        if ts > end:
            continue
        agg.moves += int(args.get("moves_attempted", 0) or 0)


def convergence_from_events(events) -> ConvergenceReport:
    """Reduce an iterable of trace events to a
    :class:`ConvergenceReport`."""
    report = ConvergenceReport()
    total_us = 0
    phase_us = {"coarsening": 0, "initial": 0, "refinement": 0}
    level_aggs: Dict[int, _LevelAgg] = {}
    pass_aggs: Dict[int, _PassAgg] = {}
    containers: List[Tuple[int, int, int, _LevelAgg]] = []
    fm_passes: List[Tuple[int, int, Dict[str, object]]] = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        report.events += 1
        name = event.get("name")
        args = event.get("args")
        if not isinstance(args, dict):
            args = {}
        try:
            ts = int(event.get("ts", 0))
            dur = int(event.get("dur", 0))
        except (TypeError, ValueError):
            continue
        pid = event.get("pid", 0)
        if name == "ml.bipartition":
            report.ml_runs += 1
            total_us += dur
        elif name == "ml.coarsen":
            phase_us["coarsening"] += dur
        elif name == "ml.initial":
            phase_us["initial"] += dur
        if name in ("ml.refine.level", "ml.initial"):
            modules = args.get("modules")
            if isinstance(modules, int):
                agg = level_aggs.get(modules)
                if agg is None:
                    agg = level_aggs[modules] = _LevelAgg(modules)
                agg.spans += 1
                agg.total_us += dur
                agg.passes += int(args.get("passes", 0) or 0)
                cut = args.get("cut")
                if isinstance(cut, (int, float)):
                    agg.cuts.append(int(cut))
                containers.append((pid, ts, ts + dur, agg))
            if name == "ml.refine.level":
                phase_us["refinement"] += dur
        elif name == "fm.pass":
            number = args.get("pass")
            if not isinstance(number, int):
                continue
            agg = pass_aggs.get(number)
            if agg is None:
                agg = pass_aggs[number] = _PassAgg(number)
            agg.count += 1
            for attr, key in (("cut_before", "cut_before"),
                              ("cut_after", "cut_after"),
                              ("gain", "gain")):
                value = args.get(key)
                if isinstance(value, (int, float)):
                    getattr(agg, attr).append(int(value))
            agg.moves_attempted += int(args.get("moves_attempted", 0) or 0)
            agg.moves_committed += int(args.get("moves_committed", 0) or 0)
            fm_passes.append((pid, ts, args))
    _attribute_moves(containers, fm_passes)
    known = sum(phase_us.values())
    if total_us:
        phase_us["other"] = max(0, total_us - known)
    report.total_seconds = (total_us or known) / 1e6
    report.phase_us = {k: v for k, v in phase_us.items() if v or total_us}
    # Coarsest (fewest modules) first — the order refinement runs in.
    report.levels = [level_aggs[m] for m in sorted(level_aggs)]
    report.passes = [pass_aggs[n] for n in sorted(pass_aggs)]
    return report


def convergence_report(path) -> ConvergenceReport:
    """Reduce the trace file at ``path`` to a
    :class:`ConvergenceReport`."""
    return convergence_from_events(read_trace(path))


# -- decision-recording analytics ---------------------------------------

def _bucket_labels(buckets: Sequence[float]) -> List[str]:
    labels = []
    lower = None
    for upper in buckets:
        left = "-inf" if lower is None else f"{lower:g}"
        labels.append(f"({left},{upper:g}]")
        lower = upper
    labels.append(f"({lower:g},inf)")
    return labels


@dataclass
class DecisionReport:
    """The reduced decision-analytics view of one recording."""

    events: int = 0
    starts: int = 0
    moves: int = 0
    merges: int = 0
    batches: int = 0
    #: pass number -> histogram of that pass's per-move gains.
    gain_hists: Dict[int, Histogram] = field(default_factory=dict)
    #: start index -> full (decision ordinal, internal cut) curve.
    curves: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    def gain_table(self) -> Table:
        labels = _bucket_labels(GAIN_BUCKETS)
        rows: List[Row] = []
        for number in sorted(self.gain_hists):
            hist = self.gain_hists[number]
            mean_gain = hist.sum / hist.count if hist.count else 0.0
            rows.append([number, hist.count, round(mean_gain, 3),
                         *hist.counts])
        return ("Gain distribution by FM pass (all sequential moves)",
                ["pass", "moves", "mean gain", *labels], rows)

    def curve_table(self, points: int = 10) -> Table:
        rows: List[Row] = []
        for start in sorted(self.curves):
            curve = self.curves[start]
            if not curve:
                continue
            if len(curve) <= points:
                sampled = curve
            else:
                step = (len(curve) - 1) / (points - 1)
                sampled = [curve[round(i * step)] for i in range(points)]
            for ordinal, cut in sampled:
                rows.append([start, ordinal, cut])
        return ("Cut vs decision ordinal (downsampled per start)",
                ["start", "decision", "internal cut"], rows)

    def tables(self) -> List[Table]:
        out: List[Table] = []
        if self.gain_hists:
            out.append(self.gain_table())
        if any(self.curves.values()):
            out.append(self.curve_table())
        return out

    def render(self) -> str:
        from ..harness.formatting import format_table
        tables = self.tables()
        if not tables:
            return "no decision events in recording"
        parts = [f"{self.events} events, {self.starts} start(s): "
                 f"{self.moves} move(s), {self.merges} merge(s), "
                 f"{self.batches} batch/polish commit(s)"]
        for title, headers, rows in tables:
            parts.append(format_table(headers, rows, title=title))
        return "\n\n".join(parts)


def decision_from_events(events) -> DecisionReport:
    """Reduce a decision recording's events to a
    :class:`DecisionReport`."""
    report = DecisionReport()
    for start, block in sorted(group_starts(events).items()):
        report.starts += 1
        current_pass = 1
        ordinal = 0
        curve: List[Tuple[int, int]] = []
        for ev in block:
            report.events += 1
            t = ev.get("t")
            if t == "fm":
                current_pass = 1
            elif t == "pass":
                p = ev.get("p")
                current_pass = (p + 1 if isinstance(p, int)
                                else current_pass + 1)
            elif t == "merge":
                report.merges += 1
            elif t == "mv":
                report.moves += 1
                gain = ev.get("g")
                if isinstance(gain, (int, float)):
                    hist = report.gain_hists.get(current_pass)
                    if hist is None:
                        hist = report.gain_hists[current_pass] = \
                            Histogram(GAIN_BUCKETS)
                    hist.observe(gain)
                cut = ev.get("c")
                if isinstance(cut, int):
                    curve.append((ordinal, cut))
                ordinal += 1
            elif t in ("batch", "polish"):
                report.batches += 1
                cut = ev.get("c")
                if isinstance(cut, int):
                    curve.append((ordinal, cut))
                ordinal += 1
        report.curves[start] = curve
    return report


def decision_report(path) -> DecisionReport:
    """Reduce the recording file at ``path`` to a
    :class:`DecisionReport`."""
    return decision_from_events(read_record(path))
