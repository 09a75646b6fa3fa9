"""``repro diff-run``: align two recordings, explain the divergence.

Given two decision recordings of the *same circuit* — mlc vs mlf,
seed vs seed, or before/after a code change — this module
answers the question the hand-pinned golden cuts cannot: **which
decision diverged first, and in what context?**

Alignment rules (DESIGN.md §16 is normative):

1. Recordings are grouped into per-start blocks (``start`` headers;
   a headerless library recording is one anonymous start) and aligned
   start-by-start on the start index — a parallel executor may write
   blocks in completion order, so file order is never compared.
2. Within a start, only *decisions* participate in alignment: each
   pair of a ``match`` event (a merge) and each move of a ``pass``
   event, in order.  Structural markers (``level``, ``fm``, the
   ``pass`` itself…) provide context but cannot diverge on their own —
   a differing structure always follows a differing decision (or a
   differing decision *count*, reported as exhaustion).
3. Two decisions at the same ordinal match when their keys agree:
   ``(v, w)`` for a merge, ``(m, s, c)`` for a move — the module, the
   side it left and the internal cut after it, both derived from the
   block's ``init`` and ``c`` and the pass's gains.  The side-0 area
   ``a0`` is not compared.
4. The first mismatching ordinal is *the* divergence; everything after
   it is cascade.  Its report carries the local context of both
   streams: the enclosing refinement block and a window of the
   surrounding events, each decision shown as one ``merge`` or ``mv``
   event (where tie handling, the balance clip, or the plateau rule
   can be read off directly).

Both streams are walked by :class:`repro.obs.summary.StartWalk`, the
walk ``repro report --record`` reads too, so the **cut-vs-decision
curve** shown under each divergence (recorded cut against decision
ordinal, merges included) is the curve the report tabulates.  It makes
the *consequence* of the divergence visible: two curves that split at
the divergence ordinal and re-join near the end mean different paths
to equal quality; a persistent gap means one family genuinely refines
better on this input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .recorder import read_record
from .summary import decision_from_events, downsample

__all__ = ["Divergence", "DiffReport", "diff_events", "diff_recordings"]

#: Raw events shown on each side of a divergence.
_CONTEXT_WINDOW = 3


def _strip_init(ev: Optional[Dict[str, object]]):
    if ev is None:
        return None
    out = dict(ev)
    init = out.pop("init", None)
    if isinstance(init, str):
        out["modules"] = len(init)
    return out


@dataclass
class Divergence:
    """The first diverging decision of one aligned start pair."""

    start: int
    ordinal: int                       #: decision ordinal within the start
    a: Optional[Dict[str, object]]     #: diverging event of stream A
    b: Optional[Dict[str, object]]     #: ``None``: stream exhausted
    block_a: Optional[Dict[str, object]] = None   #: enclosing fm event
    block_b: Optional[Dict[str, object]] = None
    window_a: List[Dict[str, object]] = field(default_factory=list)
    window_b: List[Dict[str, object]] = field(default_factory=list)

    def describe(self) -> str:
        if self.a is None or self.b is None:
            side = "A" if self.a is None else "B"
            return (f"start {self.start}: stream {side} ends after "
                    f"{self.ordinal} decisions; the other continues")
        ta, tb = self.a.get("t"), self.b.get("t")
        if ta != tb:
            return (f"start {self.start}, decision {self.ordinal}: "
                    f"event kind diverges — A has {ta!r}, B has {tb!r}")
        return (f"start {self.start}, decision {self.ordinal}: "
                f"{ta} decisions differ — A {self.a} vs B {self.b}")


@dataclass
class DiffReport:
    """Outcome of aligning two recordings."""

    starts_compared: int = 0
    starts_only_a: List[int] = field(default_factory=list)
    starts_only_b: List[int] = field(default_factory=list)
    decisions_compared: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: per diverging start: (ordinal, cut) curves of both streams.
    curves: Dict[int, Dict[str, List[Tuple[int, int]]]] = \
        field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return (not self.divergences and not self.starts_only_a
                and not self.starts_only_b)

    def first(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        lines = [f"{self.starts_compared} start(s) aligned, "
                 f"{self.decisions_compared} decision(s) compared"]
        for side, extra in (("A", self.starts_only_a),
                            ("B", self.starts_only_b)):
            if extra:
                lines.append(f"start(s) only in {side}: "
                             f"{sorted(extra)}")
        if self.identical:
            lines.append("recordings are decision-identical")
            return "\n".join(lines)
        for div in self.divergences:
            lines.append("")
            lines.append(f"first divergence — {div.describe()}")
            for name, block in (("A", div.block_a), ("B", div.block_b)):
                if block is not None:
                    lines.append(f"  {name} context: refinement block "
                                 f"{_strip_init(block)}")
            for name, window in (("A", div.window_a), ("B", div.window_b)):
                if window:
                    lines.append(f"  {name} events around divergence:")
                    lines.extend(f"    {e}" for e in window)
            curves = self.curves.get(div.start)
            if curves:
                lines.append("  cut vs decision ordinal "
                             "(divergence at "
                             f"ordinal {div.ordinal}):")
                for name in ("a", "b"):
                    rows = downsample(curves[name], 12)
                    lines.append(
                        f"    {name.upper()}: "
                        + " ".join(f"{o}:{c}" for o, c in rows))
        return "\n".join(lines)


def diff_events(events_a, events_b) -> DiffReport:
    """Align two recordings' events (see module docstring for rules)."""
    walks_a = decision_from_events(events_a).starts
    walks_b = decision_from_events(events_b).starts
    report = DiffReport()
    report.starts_only_a = sorted(set(walks_a) - set(walks_b))
    report.starts_only_b = sorted(set(walks_b) - set(walks_a))
    for index in sorted(set(walks_a) & set(walks_b)):
        report.starts_compared += 1
        a, b = walks_a[index], walks_b[index]
        n = min(len(a.decisions), len(b.decisions))
        k = next((k for k, (key_a, key_b)
                  in enumerate(zip(a.decisions, b.decisions))
                  if key_a != key_b), None)
        report.decisions_compared += n if k is None else k + 1
        if k is not None:
            divergence = Divergence(
                start=index, ordinal=k, a=a.render(k), b=b.render(k),
                block_a=a.context(k), block_b=b.context(k),
                window_a=a.window(k, _CONTEXT_WINDOW),
                window_b=b.window(k, _CONTEXT_WINDOW))
        elif len(a.decisions) != len(b.decisions):
            longer = a if len(a.decisions) > n else b
            ev = longer.render(n)
            divergence = Divergence(
                start=index, ordinal=n,
                a=ev if longer is a else None,
                b=ev if longer is b else None,
                block_a=a.context(n) if longer is a else None,
                block_b=b.context(n) if longer is b else None)
        else:
            continue
        report.divergences.append(divergence)
        report.curves[index] = {"a": a.curve, "b": b.curve}
    return report


def diff_recordings(path_a: Union[str, Path],
                    path_b: Union[str, Path]) -> DiffReport:
    """Align the two recording files and report the first divergence."""
    return diff_events(read_record(path_a), read_record(path_b))
