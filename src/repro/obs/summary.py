"""The offline readers: one fold per telemetry stream.

Every view of a trace or a decision recording is a view of one fold,
so ``repro trace-summary``, ``repro report`` and ``repro diff-run``
read each file once and can never disagree about what it says.

**Traces** (:func:`summarize_trace`).  One pass over the spans of a
trace written by :func:`repro.obs.tracing` (possibly merged from many
worker processes) fills one :class:`TraceSummary`:

* per-name phase stats — where the wall clock went;
* the ML phase split of the paper's Table VIII — coarsening, initial
  partitioning, refinement and everything else, as a share of the
  ``ml.bipartition`` total — read off those phase stats;
* one per-level aggregate (keyed by module count, over every ML start
  in the trace): spans, refinement seconds, FM passes, moves and the
  cuts reached there.  Moves are attributed by interval containment:
  an ``fm.pass`` belongs to the ``ml.refine.level`` (or
  ``ml.initial``) span of the same process whose ``[ts, ts+dur]``
  window contains it;
* cut vs FM pass number, over all refinement calls — the convergence
  curve (most of the gain lands in the first pass or two);
* for a daemon trace (``repro serve --trace``), one span tree per
  execution: the correlation args the service stamps
  (``request_id``/``trace_id``/``exec_id`` on every ``service.request``
  root, ``exec_id`` + ``trace_id`` on the lane's ``service.execute``,
  the leader's ``trace_id`` on every span inside it, worker-side ones
  included) regroup the interleaved requests.

All counters are pure functions of the move sequence, so everything
but the timings is stable for a fixed seed.

**Recordings** (:func:`decision_report`).  One walk per start of a
:mod:`repro.obs.recorder` stream, as ``group_starts`` hands it out,
yields its decisions — each pair of a ``match`` event and each move of
a ``pass`` event, held as its diff key — with their enclosing ``fm``
event, the cut-vs-decision-ordinal curve and the per-pass gain
histograms.  ``repro report --record`` shows the histograms and the
curve; ``repro diff-run`` aligns two recordings' walks and overlays
the same curves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram
from .recorder import BlockCursor, group_starts, match_error, read_record
from .trace import read_trace

__all__ = ["PhaseStats", "LevelStats", "PassStats", "ServiceRequest",
           "ExecutionTree", "TraceSummary", "summarize_trace",
           "StartWalk", "DecisionReport", "decision_from_events",
           "decision_report", "downsample", "GAIN_BUCKETS"]

#: Gain-histogram bucket upper bounds: FM gains are small signed ints,
#: so a handful of buckets around zero resolves the whole shape.
GAIN_BUCKETS = (-4.0, -1.0, 0.0, 1.0, 4.0)

#: Table VIII phase -> the span whose time it is.
_ML_PHASES = (("coarsening", "ml.coarsen"), ("initial", "ml.initial"),
              ("refinement", "ml.refine.level"))

Row = Sequence[object]
Table = Tuple[str, Sequence[str], List[Row]]


def _as_int(value) -> int:
    try:
        return int(value or 0)
    except (TypeError, ValueError):
        return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


def downsample(curve: List[Tuple[int, int]],
               points: int) -> List[Tuple[int, int]]:
    """At most ``points`` evenly spaced samples of ``curve``, keeping
    both ends."""
    if len(curve) <= points:
        return curve
    step = (len(curve) - 1) / (points - 1)
    return [curve[round(i * step)] for i in range(points)]


@dataclass
class PhaseStats:
    """All spans of one name, folded."""

    name: str
    count: int = 0
    total_us: int = 0
    max_us: int = 0

    @property
    def total_seconds(self) -> float:
        return self.total_us / 1e6

    @property
    def mean_ms(self) -> float:
        return self.total_us / self.count / 1e3 if self.count else 0.0


def _fold(phases: Dict[str, PhaseStats], name: str, dur_us: int) -> None:
    stats = phases.get(name)
    if stats is None:
        stats = phases[name] = PhaseStats(name)
    stats.count += 1
    stats.total_us += dur_us
    stats.max_us = max(stats.max_us, dur_us)


@dataclass
class LevelStats:
    """The ``ml.initial``/``ml.refine.level`` spans of one hierarchy
    level (by module count), with the FM moves they contain."""

    modules: int
    spans: int = 0
    total_us: int = 0
    passes: int = 0
    moves: int = 0
    cuts: List[int] = field(default_factory=list)


@dataclass
class PassStats:
    """Every ``fm.pass`` span with one pass number."""

    number: int
    count: int = 0
    cut_before: List[int] = field(default_factory=list)
    cut_after: List[int] = field(default_factory=list)
    gain: List[int] = field(default_factory=list)
    moves_attempted: int = 0
    moves_committed: int = 0


@dataclass
class ServiceRequest:
    """One ``service.request`` root span."""

    request_id: str
    trace_id: str
    method: str = "?"
    endpoint: str = "?"
    status: int = 0
    dur_us: int = 0
    exec_id: Optional[str] = None
    cached: bool = False
    coalesced: bool = False
    degraded: bool = False

    @property
    def flags(self) -> str:
        parts = [name for name, on in (("cached", self.cached),
                                       ("coalesced", self.coalesced),
                                       ("degraded", self.degraded)) if on]
        return f" [{', '.join(parts)}]" if parts else ""


@dataclass
class ExecutionTree:
    """One ``service.execute`` span and everything that ran under it."""

    exec_id: str
    trace_id: Optional[str] = None
    dur_us: int = 0
    requests: List[ServiceRequest] = field(default_factory=list)
    phases: Dict[str, PhaseStats] = field(default_factory=dict)


@dataclass
class TraceSummary:
    """One trace, folded (see the module docstring for the views)."""

    events: int = 0
    processes: int = 0
    span_seconds: float = 0.0
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    instants: Dict[str, int] = field(default_factory=dict)
    #: Coarsest (fewest modules) first — the order refinement runs in.
    levels: List[LevelStats] = field(default_factory=list)
    passes: List[PassStats] = field(default_factory=list)
    start_cuts: List[int] = field(default_factory=list)
    requests: List[ServiceRequest] = field(default_factory=list)
    executions: Dict[str, ExecutionTree] = field(default_factory=dict)

    # -- derived views ---------------------------------------------------

    def _phase(self, name: str) -> PhaseStats:
        return self.phases.get(name) or PhaseStats(name)

    @property
    def spans(self) -> int:
        return sum(stats.count for stats in self.phases.values())

    @property
    def ml_runs(self) -> int:
        return self._phase("ml.bipartition").count

    @property
    def phase_us(self) -> Dict[str, int]:
        """Table VIII phase -> microseconds inside ML runs."""
        total = self._phase("ml.bipartition").total_us
        split = {phase: self._phase(name).total_us
                 for phase, name in _ML_PHASES}
        if total:
            split["other"] = max(0, total - sum(split.values()))
        return {k: v for k, v in split.items() if v or total}

    @property
    def total_seconds(self) -> float:
        return (self._phase("ml.bipartition").total_us
                or sum(self.phase_us.values())) / 1e6

    @property
    def is_service_trace(self) -> bool:
        return bool(self.requests)

    # -- report tables -----------------------------------------------------

    def phase_table(self) -> Table:
        split = self.phase_us
        total = sum(split.values())
        rows: List[Row] = []
        for name in ("coarsening", "initial", "refinement", "other"):
            us = split.get(name, 0)
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
        """The convergence tables ``repro report`` shows."""
        out: List[Table] = []
        if self.phase_us:
            out.append(self.phase_table())
        if self.levels:
            out.append(self.level_table())
        if self.passes:
            out.append(self.pass_table())
        return out

    # -- repro trace-summary -----------------------------------------------

    def render(self) -> str:
        """The ``repro trace-summary`` text: a service trace's span trees
        first, then the phase table, events, cut by level and starts."""
        if not self.events:
            return "no events in trace (empty or header-only file)"
        lines = [f"{self.events} events from {self.processes} process(es), "
                 f"{self.span_seconds:.3f}s traced"]
        if self.phases:
            lines.append("")
            lines.append(f"{'phase':<22} {'count':>7} {'total s':>9} "
                         f"{'mean ms':>9} {'max ms':>9}")
            for p in sorted(self.phases.values(),
                            key=lambda p: p.total_us, reverse=True):
                lines.append(f"{p.name:<22} {p.count:>7} "
                             f"{p.total_seconds:>9.3f} {p.mean_ms:>9.3f} "
                             f"{p.max_us / 1e3:>9.3f}")
        if self.instants:
            lines.append("")
            lines.append("events: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.instants.items())))
        cut_levels = [agg for agg in reversed(self.levels) if agg.cuts]
        if cut_levels:
            lines.append("")
            lines.append("cut by level (finest last):")
            lines.append(f"{'modules':>9} {'spans':>7} {'min cut':>9} "
                         f"{'mean cut':>10}")
            for agg in cut_levels:
                lines.append(f"{agg.modules:>9} {len(agg.cuts):>7} "
                             f"{min(agg.cuts):>9} {mean(agg.cuts):>10.1f}")
        if self.start_cuts:
            lines.append("")
            lines.append(
                f"portfolio: {len(self.start_cuts)} finished start(s), "
                f"min cut {min(self.start_cuts)}, "
                f"mean cut {mean(self.start_cuts):.1f}")
        flat = "\n".join(lines)
        return (f"{self._render_service()}\n\n{flat}"
                if self.is_service_trace else flat)

    def _render_service(self) -> str:
        lines = [f"service trace: {len(self.requests)} request(s), "
                 f"{len(self.executions)} execution(s)"]
        claimed = set()
        for exec_id in sorted(self.executions):
            tree = self.executions[exec_id]
            lines.append("")
            lines.append(
                f"execution {exec_id} — {tree.dur_us / 1e6:.3f}s, "
                f"served {len(tree.requests)} request(s)")
            for req in tree.requests:
                claimed.add(id(req))
                lines.append(
                    f"  {req.request_id:<18} {req.method} "
                    f"/{req.endpoint}  {req.status}  "
                    f"{req.dur_us / 1e3:.1f}ms{req.flags}  "
                    f"trace={req.trace_id}")
            for p in sorted(tree.phases.values(),
                            key=lambda p: p.total_us, reverse=True):
                lines.append(f"    {p.name:<22} {p.count:>5} "
                             f"{p.total_seconds:>9.3f}s "
                             f"mean {p.mean_ms:.3f}ms")
        other = [r for r in self.requests if id(r) not in claimed]
        if other:
            lines.append("")
            lines.append(f"requests without an execution "
                         f"({len(other)} — cache hits before tracing, "
                         f"scrapes, errors):")
            for req in other:
                lines.append(
                    f"  {req.request_id:<18} {req.method} "
                    f"/{req.endpoint}  {req.status}  "
                    f"{req.dur_us / 1e3:.1f}ms{req.flags}")
        return "\n".join(lines)


def summarize_trace(path) -> TraceSummary:
    """Fold the trace at ``path`` into a :class:`TraceSummary`, in one
    pass.  Unknown or malformed events are tolerated, never raised on:
    a non-int ``dur`` counts as 0, a non-int ``modules`` as level 0."""
    summary = TraceSummary()
    pids = set()
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    levels: Dict[int, LevelStats] = {}
    passes: Dict[int, PassStats] = {}
    containers: List[Tuple[object, float, float, LevelStats]] = []
    fm_passes: List[Tuple[object, float, int]] = []
    # Spans that may sit inside an execution whose service.execute span
    # (written after its children) is still ahead.
    deferred: List[Tuple[str, int, object, object]] = []
    trace_to_exec: Dict[str, str] = {}
    for event in read_trace(path):
        if not isinstance(event, dict):
            continue  # unknown payload: tolerate, don't raise
        summary.events += 1
        if "pid" in event:
            pids.add(event["pid"])
        ph = event.get("ph")
        name = str(event.get("name", "?"))
        if ph == "i":
            summary.instants[name] = summary.instants.get(name, 0) + 1
        if ph != "X":
            continue
        args = event.get("args")
        if not isinstance(args, dict):
            args = {}
        dur = _as_int(event.get("dur"))
        ts = event.get("ts")
        if not _is_number(ts):
            ts = None
        pid = event.get("pid", 0)
        _fold(summary.phases, name, dur)
        if ts is not None:
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = ts + dur if t_max is None else max(t_max, ts + dur)
        cut = args.get("cut")
        if name in ("ml.refine.level", "ml.initial"):
            modules = args.get("modules")
            if not isinstance(modules, int):
                modules = 0
            level = levels.get(modules)
            if level is None:
                level = levels[modules] = LevelStats(modules)
            level.spans += 1
            level.total_us += dur
            level.passes += _as_int(args.get("passes"))
            if _is_number(cut):
                level.cuts.append(int(cut))
            if ts is not None:
                containers.append((pid, ts, ts + dur, level))
        elif name == "fm.pass" and isinstance(args.get("pass"), int):
            agg = passes.get(args["pass"])
            if agg is None:
                agg = passes[args["pass"]] = PassStats(args["pass"])
            agg.count += 1
            for key in ("cut_before", "cut_after", "gain"):
                if _is_number(args.get(key)):
                    getattr(agg, key).append(int(args[key]))
            attempted = _as_int(args.get("moves_attempted"))
            agg.moves_attempted += attempted
            agg.moves_committed += _as_int(args.get("moves_committed"))
            if ts is not None:
                fm_passes.append((pid, ts, attempted))
        elif name == "portfolio.start":
            if _is_number(cut) and args.get("status") == "ok":
                summary.start_cuts.append(int(cut))
        elif name == "service.request":
            exec_id = args.get("exec_id")
            summary.requests.append(ServiceRequest(
                request_id=str(args.get("request_id", "?")),
                trace_id=str(args.get("trace_id", "?")),
                method=str(args.get("method", "?")),
                endpoint=str(args.get("endpoint", "?")),
                status=_as_int(args.get("status")),
                dur_us=dur,
                exec_id=str(exec_id) if exec_id is not None else None,
                cached=bool(args.get("cached")),
                coalesced=bool(args.get("coalesced")),
                degraded=bool(args.get("degraded"))))
            continue
        elif name == "service.execute":
            exec_id = str(args.get("exec_id", "?"))
            tree = summary.executions.setdefault(
                exec_id, ExecutionTree(exec_id))
            tree.dur_us = dur
            if args.get("trace_id") is not None:
                tree.trace_id = str(args["trace_id"])
                trace_to_exec[tree.trace_id] = exec_id
            continue
        if args.get("exec_id") is not None \
                or args.get("trace_id") is not None:
            deferred.append((name, dur, args.get("exec_id"),
                             args.get("trace_id")))
    summary.processes = len(pids)
    if t_min is not None and t_max is not None:
        summary.span_seconds = (t_max - t_min) / 1e6
    _attribute_moves(containers, fm_passes)
    summary.levels = [levels[m] for m in sorted(levels)]
    summary.passes = [passes[n] for n in sorted(passes)]
    for name, dur, exec_id, trace_id in deferred:
        key = str(exec_id) if exec_id is not None else None
        if key not in summary.executions and trace_id is not None:
            key = trace_to_exec.get(str(trace_id))
        if key in summary.executions:
            _fold(summary.executions[key].phases, name, dur)
    for req in summary.requests:
        tree = summary.executions.get(req.exec_id) \
            or summary.executions.get(trace_to_exec.get(req.trace_id))
        if tree is not None:
            tree.requests.append(req)
    return summary


def _attribute_moves(containers, fm_passes) -> None:
    """Add each ``fm.pass``'s attempted moves to the level span of the
    same process whose window contains its start."""
    windows: Dict[object, Tuple[List[float], list]] = {}
    for pid, start, end, level in sorted(containers, key=lambda c: c[1]):
        starts, rest = windows.setdefault(pid, ([], []))
        starts.append(start)
        rest.append((end, level))
    for pid, ts, moves in fm_passes:
        starts, rest = windows.get(pid, ((), ()))
        i = bisect_right(starts, ts) - 1
        if i >= 0 and ts <= rest[i][0]:
            rest[i][1].moves += moves


# -- decision recordings -------------------------------------------------

class StartWalk:
    """One start's block of a recording, walked once.

    A decision is held as its key: ``(v, w)`` for a pair of a ``match``
    event, ``(m, s, c)`` for a move of a ``pass`` event — the module,
    the side it left and the internal cut after it
    (:class:`~repro.obs.recorder.BlockCursor`).  Only what ``diff-run``
    shows of a divergence is rendered, one ``merge`` or ``mv`` event
    dict per decision.
    """

    def __init__(self, events: List[Dict[str, object]]):
        self.events = events
        #: Every decision's key, in order; its ordinal is its index.
        self.decisions: List[Tuple[int, ...]] = []
        #: Index in ``events`` -> first decision ordinal, for each
        #: ``match`` and ``pass`` event whose list was read.
        self.anchors: Dict[int, int] = {}

    @cached_property
    def curve(self) -> List[Tuple[int, int]]:
        """``(decision ordinal, internal cut)`` after every move."""
        return [(ordinal, key[2]) for ordinal, key
                in enumerate(self.decisions) if len(key) == 3]

    @classmethod
    def scan(cls, events: List[Dict[str, object]],
             gain_hists: Dict[int, Histogram]) -> "StartWalk":
        """Walk ``events``, observing the gain of each move a pass
        kept (its ``pass`` event's committed prefix ``k``) into
        ``gain_hists`` under its FM pass number."""
        walk = cls(events)
        decisions = walk.decisions
        cursor: Optional[BlockCursor] = None
        current_pass = 1
        for pos, ev in enumerate(events):
            t = ev.get("t")
            if t == "fm":
                cursor, current_pass = BlockCursor.open(ev), 1
            elif t == "match" and match_error(ev) is None:
                pairs = ev["p"]
                walk.anchors[pos] = len(decisions)
                decisions.extend(zip(pairs[::2], pairs[1::2]))
            elif t == "pass":
                hist = gain_hists.get(current_pass)
                if hist is None:
                    hist = gain_hists[current_pass] = Histogram(GAIN_BUCKETS)
                moves = cursor.moves(ev) if cursor is not None else None
                if moves is not None:
                    walk.anchors[pos] = len(decisions)
                    decisions.extend(moves)
                    for gain in ev["g"][:ev["k"]]:
                        hist.observe(gain)
                p = ev.get("p")
                current_pass = (p + 1 if isinstance(p, int)
                                else current_pass + 1)
        return walk

    # -- rendering a divergence --------------------------------------------

    def _locate(self, ordinal: int) -> Tuple[int, int]:
        """``(index in events, offset in its list)`` of a decision."""
        pos = max(pos for pos, first in self.anchors.items()
                  if first <= ordinal)
        return pos, ordinal - self.anchors[pos]

    def _span(self, pos: int) -> int:
        """How many events ``events[pos]`` stands for when each
        decision is one event: a ``pass`` its moves and itself."""
        ev = self.events[pos]
        if pos not in self.anchors:
            return 1
        return len(ev["p"]) // 2 if ev["t"] == "match" else len(ev["m"]) + 1

    def _render(self, pos: int, offset: int) -> Dict[str, object]:
        ev = self.events[pos]
        first = self.anchors.get(pos)
        if first is None:
            return ev
        if ev["t"] == "match":
            v, w = self.decisions[first + offset]
            return {"t": "merge", "v": v, "w": w}
        if offset == len(ev["m"]):
            return {key: value for key, value in ev.items()
                    if key not in ("m", "g", "a0")}
        m, s, c = self.decisions[first + offset]
        return {"t": "mv", "i": offset, "m": m, "s": s,
                "g": ev["g"][offset], "c": c}

    def render(self, ordinal: int) -> Dict[str, object]:
        """Decision ``ordinal`` as an event dict."""
        return self._render(*self._locate(ordinal))

    def context(self, ordinal: int) -> Optional[Dict[str, object]]:
        """The last ``fm`` event before decision ``ordinal``."""
        pos, _ = self._locate(ordinal)
        return next((ev for ev in reversed(self.events[:pos])
                     if ev.get("t") == "fm"), None)

    def window(self, ordinal: int, width: int) -> List[Dict[str, object]]:
        """The ``width`` events on each side of decision ``ordinal``,
        counting each decision as one event."""
        pos, offset = self._locate(ordinal)
        items = [(e, i) for e in range(max(0, pos - width),
                                       min(len(self.events), pos + width + 1))
                 for i in range(self._span(e))]
        at = items.index((pos, offset))
        return [self._render(*item)
                for item in items[max(0, at - width):at + width + 1]]


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
    """A recording, walked start by start."""

    starts: Dict[int, StartWalk] = field(default_factory=dict)
    #: FM pass number -> histogram of the gains of the moves that pass
    #: committed (its best prefix), all starts.
    gain_hists: Dict[int, Histogram] = field(default_factory=dict)

    def gain_table(self) -> Table:
        rows: List[Row] = []
        for number in sorted(self.gain_hists):
            hist = self.gain_hists[number]
            mean_gain = hist.sum / hist.count if hist.count else 0.0
            rows.append([number, hist.count, round(mean_gain, 3),
                         *hist.counts])
        return ("Gain distribution by FM pass (committed moves)",
                ["pass", "moves", "mean gain",
                 *_bucket_labels(GAIN_BUCKETS)], rows)

    def curve_table(self, points: int = 10) -> Table:
        rows: List[Row] = [
            [start, ordinal, cut]
            for start in sorted(self.starts)
            for ordinal, cut in downsample(self.starts[start].curve,
                                           points)]
        return ("Cut vs decision ordinal (downsampled per start)",
                ["start", "decision", "internal cut"], rows)

    def tables(self) -> List[Table]:
        out: List[Table] = []
        if self.gain_hists:
            out.append(self.gain_table())
        if any(walk.curve for walk in self.starts.values()):
            out.append(self.curve_table())
        return out


def decision_from_events(events) -> DecisionReport:
    """Walk a recording's events start by start (a headerless library
    recording is one anonymous start)."""
    report = DecisionReport()
    for start, block in sorted(group_starts(events).items()):
        report.starts[start] = StartWalk.scan(block, report.gain_hists)
    return report


def decision_report(path) -> DecisionReport:
    """Walk the recording file at ``path``."""
    return decision_from_events(read_record(path))
