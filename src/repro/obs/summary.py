"""Aggregate a trace file into a per-phase time/cut breakdown.

Backs the ``repro trace-summary`` CLI subcommand: reads a trace
written by :func:`repro.obs.tracing` (possibly merged from many
worker processes) and reduces it to the questions the
paper's tables ask — where did the wall clock go, phase by phase, and
how did the cut evolve level by level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional

from .trace import read_trace

__all__ = ["PhaseStats", "TraceSummary", "summarize_trace",
           "ServiceRequest", "ExecutionTree", "ServiceTraceSummary",
           "summarize_service_trace"]


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


@dataclass
class TraceSummary:
    """The reduced trace: phase table plus per-level cut statistics."""

    events: int = 0
    processes: int = 0
    span_seconds: float = 0.0
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: ``coarse modules at level`` -> cuts seen by refinement there.
    level_cuts: Dict[int, List[int]] = field(default_factory=dict)
    start_cuts: List[int] = field(default_factory=list)
    instants: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        if not self.events:
            return "no events in trace (empty or header-only file)"
        lines = [f"{self.events} events from {self.processes} process(es), "
                 f"{self.span_seconds:.3f}s traced"]
        if self.phases:
            lines.append("")
            lines.append(f"{'phase':<22} {'count':>7} {'total s':>9} "
                         f"{'mean ms':>9} {'max ms':>9}")
            ordered = sorted(self.phases.values(),
                             key=lambda p: p.total_us, reverse=True)
            for p in ordered:
                lines.append(f"{p.name:<22} {p.count:>7} "
                             f"{p.total_seconds:>9.3f} {p.mean_ms:>9.3f} "
                             f"{p.max_us / 1e3:>9.3f}")
        if self.instants:
            lines.append("")
            lines.append("events: " + ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.instants.items())))
        if self.level_cuts:
            lines.append("")
            lines.append(f"cut by level ({'finest last'}):")
            lines.append(f"{'modules':>9} {'spans':>7} {'min cut':>9} "
                         f"{'mean cut':>10}")
            for modules in sorted(self.level_cuts, reverse=True):
                cuts = self.level_cuts[modules]
                lines.append(f"{modules:>9} {len(cuts):>7} "
                             f"{min(cuts):>9} {mean(cuts):>10.1f}")
        if self.start_cuts:
            lines.append("")
            lines.append(
                f"portfolio: {len(self.start_cuts)} finished start(s), "
                f"min cut {min(self.start_cuts)}, "
                f"mean cut {mean(self.start_cuts):.1f}")
        return "\n".join(lines)


# -- service traces ----------------------------------------------------
#
# A daemon-lifetime trace (``repro serve --trace``) interleaves many
# requests; the flat phase table above still works, but the question an
# operator asks is per-request: which requests rode which execution.
# The regrouping below keys on the correlation args the service stamps:
# every request gets a ``service.request`` root span carrying
# ``request_id``/``trace_id``/``exec_id``; the lane's one
# ``service.execute`` span carries ``exec_id`` + ``trace_id``; and
# every span inside the execution — including worker-side ``fm.pass``
# spans shipped across the fork — carries the leader's ``trace_id``.


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

    def fold(self, name: str, dur_us: int) -> None:
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats(name)
        stats.count += 1
        stats.total_us += dur_us
        stats.max_us = max(stats.max_us, dur_us)


@dataclass
class ServiceTraceSummary:
    """A service trace regrouped into one span tree per request."""

    requests: List[ServiceRequest] = field(default_factory=list)
    executions: Dict[str, ExecutionTree] = field(default_factory=dict)

    @property
    def is_service_trace(self) -> bool:
        return bool(self.requests)

    def render(self) -> str:
        if not self.requests:
            return "no service.request spans in trace"
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
            if tree.phases:
                ordered = sorted(tree.phases.values(),
                                 key=lambda p: p.total_us, reverse=True)
                for p in ordered:
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


def summarize_service_trace(path) -> ServiceTraceSummary:
    """Regroup a (possibly merged, many-request) service trace into
    per-request span trees.  Non-service traces yield an empty summary
    (``is_service_trace`` false) — callers fall back to the flat
    :func:`summarize_trace` table."""
    summary = ServiceTraceSummary()
    deferred: List[tuple] = []
    trace_to_exec: Dict[str, str] = {}
    for event in read_trace(path):
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        name = str(event.get("name", "?"))
        args = event.get("args")
        if not isinstance(args, dict):
            args = {}
        try:
            dur = int(event.get("dur", 0))
        except (TypeError, ValueError):
            dur = 0
        if name == "service.request":
            summary.requests.append(ServiceRequest(
                request_id=str(args.get("request_id", "?")),
                trace_id=str(args.get("trace_id", "?")),
                method=str(args.get("method", "?")),
                endpoint=str(args.get("endpoint", "?")),
                status=int(args.get("status", 0) or 0),
                dur_us=dur,
                exec_id=(str(args["exec_id"])
                         if args.get("exec_id") is not None else None),
                cached=bool(args.get("cached")),
                coalesced=bool(args.get("coalesced")),
                degraded=bool(args.get("degraded"))))
        elif name == "service.execute":
            exec_id = str(args.get("exec_id", "?"))
            tree = summary.executions.setdefault(
                exec_id, ExecutionTree(exec_id))
            tree.dur_us = dur
            trace_id = args.get("trace_id")
            if trace_id is not None:
                tree.trace_id = str(trace_id)
                trace_to_exec[str(trace_id)] = exec_id
        else:
            # Might belong to an execution we have not seen yet (the
            # service.execute span is emitted *after* its children).
            deferred.append((name, dur, args.get("exec_id"),
                             args.get("trace_id")))
    for name, dur, exec_id, trace_id in deferred:
        key = None
        if exec_id is not None and str(exec_id) in summary.executions:
            key = str(exec_id)
        elif trace_id is not None:
            key = trace_to_exec.get(str(trace_id))
        if key is not None:
            summary.executions[key].fold(name, dur)
    for req in summary.requests:
        tree = None
        if req.exec_id is not None:
            tree = summary.executions.get(req.exec_id)
        if tree is None:
            tree = summary.executions.get(
                trace_to_exec.get(req.trace_id, ""))
        if tree is not None:
            tree.requests.append(req)
    return summary


def summarize_trace(path) -> TraceSummary:
    """Reduce the trace at ``path`` to a :class:`TraceSummary`."""
    summary = TraceSummary()
    pids = set()
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    for event in read_trace(path):
        if not isinstance(event, dict):
            continue  # unknown payload: tolerate, don't raise
        summary.events += 1
        if "pid" in event:
            pids.add(event["pid"])
        ph = event.get("ph")
        args = event.get("args")
        if not isinstance(args, dict):
            args = {}
        ts = event.get("ts")
        if ph == "X":
            name = str(event.get("name", "?"))
            try:
                dur = int(event.get("dur", 0))
            except (TypeError, ValueError):
                dur = 0
            stats = summary.phases.get(name)
            if stats is None:
                stats = summary.phases[name] = PhaseStats(name)
            stats.count += 1
            stats.total_us += dur
            stats.max_us = max(stats.max_us, dur)
            if isinstance(ts, (int, float)):
                t_min = ts if t_min is None else min(t_min, ts)
                t_max = (ts + dur if t_max is None
                         else max(t_max, ts + dur))
            cut = args.get("cut")
            if isinstance(cut, (int, float)):
                if name in ("ml.refine.level", "ml.initial"):
                    modules = args.get("modules", 0)
                    if not isinstance(modules, int):
                        modules = 0
                    summary.level_cuts.setdefault(modules, []).append(
                        int(cut))
                elif name == "portfolio.start" \
                        and args.get("status") == "ok":
                    summary.start_cuts.append(int(cut))
        elif ph == "i":
            name = str(event.get("name", "?"))
            summary.instants[name] = summary.instants.get(name, 0) + 1
    summary.processes = len(pids)
    if t_min is not None and t_max is not None:
        summary.span_seconds = (t_max - t_min) / 1e6
    return summary
