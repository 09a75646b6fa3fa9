"""Metrics registry: counters, gauges, histograms; Prometheus output.

Companion to :mod:`repro.obs.trace` with the same activation contract:
the module-level singleton (:func:`metrics`) is a no-op until a real
:class:`MetricsRegistry` is installed, and instrumented code guards
collection behind its ``enabled`` flag, so dormant metric sites cost
one attribute read.

A registry renders to the Prometheus text exposition format
(:meth:`MetricsRegistry.render_prometheus`) — the ``--metrics-out``
CLI flag writes exactly that.  Worker processes of the parallel
runtime collect into their own registry, ship a :meth:`snapshot` back
on the result record, and the parent :meth:`absorb`\\ s it: counters and
histograms add, gauges keep the latest observation.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple, Union

from .events import Channel

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NoopMetrics", "METRICS", "metrics", "set_metrics",
           "collecting_metrics",
           "write_prometheus", "lint_prometheus", "DEFAULT_BUCKETS",
           "SERVICE_BUCKETS"]

#: Default histogram buckets (seconds-oriented, log-ish spacing).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0)

#: Buckets for service request latencies.  The cache-hit path answers
#: in well under a millisecond while a cold portfolio takes seconds, so
#: the grid needs sub-millisecond resolution at the bottom without
#: losing the tail.  Below 10ms — where the hit path lives and where
#: interpolated quantiles are cross-checked against client stopwatches
#: (``bench_service.py``) — the edges step by ~1.4–1.5× so the
#: interpolation error stays well inside that check's 20% tolerance;
#: past 10ms a 1-2.5-5 ladder carries the tail out to 60s.
SERVICE_BUCKETS = (0.0001, 0.00015, 0.00025, 0.00035, 0.0005, 0.0007,
                   0.001, 0.0015, 0.0025, 0.0035, 0.005, 0.007,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double-quote, and newline must be escaped or the sample line is
    unparseable (a real corruption risk — netlist names and error
    strings end up in labels)."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """Escape HELP text: backslash and newline only (quotes are legal
    there)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down; keeps the latest observation."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) by linear
        interpolation inside the owning bucket — the same estimate
        PromQL's ``histogram_quantile`` computes, so in-process
        summaries (``/status``, ``repro top``) agree with dashboards
        scraping ``/metrics``.  Returns ``nan`` with no observations;
        observations beyond the last finite bucket clamp to its bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for upper, count in zip(self.buckets, self.counts):
            if count and cumulative + count >= rank:
                return lower + (upper - lower) * (rank - cumulative) / count
            cumulative += count
            lower = upper
        return self.buckets[-1] if self.buckets else math.nan

    def summary(self) -> Dict[str, float]:
        """Count, sum, and the quantiles the ops surfaces display."""
        return {"count": self.count, "sum": self.sum,
                "p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}


class _NoopInstrument:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return math.nan

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0, "p50": math.nan,
                "p90": math.nan, "p99": math.nan}


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopMetrics:
    """The disabled registry: hands out shared no-op instruments."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels):
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels):
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS, **labels):
        return _NOOP_INSTRUMENT

    def histogram_summaries(self, name: str) -> List[Dict[str, object]]:
        return []

    def snapshot(self) -> Dict[str, object]:
        return {}

    def absorb(self, snapshot: Optional[Dict[str, object]]) -> None:
        pass

    def render_prometheus(self) -> str:
        return ""


class _Family:
    """One metric name: its type, help text, and per-label series."""

    __slots__ = ("kind", "help", "buckets", "series")

    def __init__(self, kind: str, help: str,
                 buckets: Optional[Tuple[float, ...]] = None):
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by name and labels.

    Instruments are created on first use and cached, so hot paths can
    re-request them by name (a dict lookup) or hold on to the returned
    object (an attribute bump).
    """

    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _get(self, name: str, kind: str, help: str, factory, **labels):
        family = self._families.get(name)
        if family is None:
            family = _Family(kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        key = _label_key(labels)
        instrument = family.series.get(key)
        if instrument is None:
            instrument = factory()
            family.series[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(name, "counter", help, Counter, **labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(name, "gauge", help, Gauge, **labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        instrument = self._get(name, "histogram", help,
                               lambda: Histogram(buckets), **labels)
        return instrument

    def histogram_summaries(self, name: str) -> List[Dict[str, object]]:
        """Per-series :meth:`Histogram.summary` rows for one histogram
        family — the shape ``/status`` and ``repro top`` display.
        Returns ``[]`` for unknown or non-histogram names (never
        creates the family as a side effect)."""
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return []
        rows: List[Dict[str, object]] = []
        for key in sorted(family.series):
            row: Dict[str, object] = {"labels": dict(key)}
            row.update(family.series[key].summary())
            rows.append(row)
        return rows

    # -- cross-process aggregation -------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view suitable for pickling across the pool."""
        out: Dict[str, object] = {}
        for name, family in self._families.items():
            series = {}
            for key, instrument in family.series.items():
                if family.kind == "histogram":
                    series[key] = {"buckets": instrument.buckets,
                                   "counts": list(instrument.counts),
                                   "sum": instrument.sum,
                                   "count": instrument.count}
                else:
                    series[key] = instrument.value
            out[name] = {"kind": family.kind, "help": family.help,
                         "series": series}
        return out

    def absorb(self, snapshot: Optional[Dict[str, object]]) -> None:
        """Fold a worker's snapshot in: add counters/histograms,
        overwrite gauges."""
        if not snapshot:
            return
        for name, data in snapshot.items():
            kind = data["kind"]
            for key, value in data["series"].items():
                labels = dict(key)
                if kind == "counter":
                    self.counter(name, data["help"], **labels).inc(value)
                elif kind == "gauge":
                    self.gauge(name, data["help"], **labels).set(value)
                else:
                    hist = self.histogram(name, data["help"],
                                          buckets=tuple(value["buckets"]),
                                          **labels)
                    for i, c in enumerate(value["counts"]):
                        hist.counts[i] += c
                    hist.sum += value["sum"]
                    hist.count += value["count"]

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.series):
                instrument = family.series[key]
                if family.kind == "histogram":
                    cumulative = 0
                    for upper, count in zip(instrument.buckets,
                                            instrument.counts):
                        cumulative += count
                        le = _label_key(dict(key, le=_fmt(upper)))
                        lines.append(f"{name}_bucket{_format_labels(le)} "
                                     f"{cumulative}")
                    le = _label_key(dict(key, le="+Inf"))
                    lines.append(f"{name}_bucket{_format_labels(le)} "
                                 f"{instrument.count}")
                    lines.append(f"{name}_sum{_format_labels(key)} "
                                 f"{_fmt(instrument.sum)}")
                    lines.append(f"{name}_count{_format_labels(key)} "
                                 f"{instrument.count}")
                else:
                    lines.append(f"{name}{_format_labels(key)} "
                                 f"{_fmt(instrument.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: Union[int, float]) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def write_prometheus(registry: Union[NoopMetrics, MetricsRegistry],
                     path) -> None:
    """Write ``registry``'s Prometheus exposition to ``path``.

    Creates missing parent directories; the shared implementation
    behind every ``--metrics-out`` site (CLI and harness).  IO errors
    propagate as :class:`OSError` for the caller to translate.
    """
    import os
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(registry.render_prometheus())


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"      # metric name
    r"(?:\{(.*)\})?"                    # optional label set
    r" (\S+)"                           # value
    r"(?: (-?\d+))?$")                  # optional timestamp
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_TYPES = frozenset(("counter", "gauge", "histogram", "summary",
                    "untyped"))


def _parse_sample_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)  # accepts "NaN"


def lint_prometheus(text: str) -> List[str]:
    """Promtool-style lint of the text exposition format, pure python.

    Returns a list of problems (empty when the exposition is clean).
    Checks the rules that actually corrupt scrapes: every line parses;
    ``# HELP``/``# TYPE`` appear at most once per family, with a known
    type, before any of that family's samples; a family's samples are
    contiguous; histogram bucket counts are monotone non-decreasing in
    ``le`` order with the ``+Inf`` bucket equal to ``_count``; and
    ``_sum``/``_count`` are present exactly once per histogram series.
    """
    problems: List[str] = []
    help_seen: Dict[str, int] = {}
    type_seen: Dict[str, str] = {}
    sample_order: List[str] = []        # families in first-sample order
    # histogram series state: family -> base-label-key -> fields
    hist: Dict[str, Dict[LabelKey, Dict[str, object]]] = {}

    def family_of(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if type_seen.get(base) == "histogram":
                    return base
        return sample_name

    if text and not text.endswith("\n"):
        problems.append("exposition must end with a newline")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, ignored
            kind, name = parts[1], parts[2]
            if not _METRIC_NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: invalid metric name {name!r}")
                continue
            if name in sample_order:
                problems.append(
                    f"line {lineno}: # {kind} {name} after samples of "
                    f"that family")
            if kind == "HELP":
                help_seen[name] = help_seen.get(name, 0) + 1
                if help_seen[name] > 1:
                    problems.append(
                        f"line {lineno}: duplicate # HELP for {name}")
            else:
                metric_type = parts[3].strip() if len(parts) > 3 else ""
                if metric_type not in _TYPES:
                    problems.append(
                        f"line {lineno}: unknown TYPE {metric_type!r} "
                        f"for {name}")
                if name in type_seen:
                    problems.append(
                        f"line {lineno}: duplicate # TYPE for {name}")
                type_seen[name] = metric_type
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        sample_name, label_text, value_text = match.group(1, 2, 3)
        labels: Dict[str, str] = {}
        if label_text:
            consumed = _LABEL_RE.findall(label_text)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in consumed)
            if rebuilt != label_text.rstrip(","):
                problems.append(
                    f"line {lineno}: malformed label set "
                    f"{{{label_text}}}")
                continue
            labels = dict(consumed)
        try:
            value = _parse_sample_value(value_text)
        except ValueError:
            problems.append(
                f"line {lineno}: unparseable value {value_text!r}")
            continue
        family = family_of(sample_name)
        if family not in sample_order:
            sample_order.append(family)
        elif sample_order[-1] != family:
            problems.append(
                f"line {lineno}: samples for {family} are not "
                f"contiguous")
        if type_seen.get(family) == "histogram":
            base_key = _label_key(
                {k: v for k, v in labels.items() if k != "le"})
            series = hist.setdefault(family, {}).setdefault(
                base_key, {"buckets": [], "sum": None, "count": None})
            if sample_name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(
                        f"line {lineno}: {sample_name} without le label")
                else:
                    series["buckets"].append(
                        (_parse_sample_value(labels["le"]), value))
            elif sample_name.endswith("_sum"):
                if series["sum"] is not None:
                    problems.append(
                        f"line {lineno}: duplicate {sample_name}")
                series["sum"] = value
            elif sample_name.endswith("_count"):
                if series["count"] is not None:
                    problems.append(
                        f"line {lineno}: duplicate {sample_name}")
                series["count"] = value

    for family, series_map in hist.items():
        for base_key, series in series_map.items():
            where = f"{family}{_format_labels(base_key)}"
            uppers = [u for u, _ in series["buckets"]]
            counts = [c for _, c in series["buckets"]]
            if uppers != sorted(uppers):
                problems.append(f"{where}: le bounds out of order")
            if any(b > a for a, b in zip(counts[1:], counts)):
                problems.append(
                    f"{where}: bucket counts not monotone")
            if not uppers or uppers[-1] != math.inf:
                problems.append(f"{where}: missing +Inf bucket")
            elif series["count"] is None:
                problems.append(f"{where}: missing _count")
            elif counts[-1] != series["count"]:
                problems.append(
                    f"{where}: _count {series['count']} != +Inf bucket "
                    f"{counts[-1]}")
            if series["sum"] is None:
                problems.append(f"{where}: missing _sum")
    return problems


# -- the metrics channel ------------------------------------------------

#: Metrics ride the shared event pipeline's installation and worker
#: transport: a pool worker captures into a fresh registry and ships
#: its snapshot back for the parent to absorb.
METRICS = Channel("metrics", NoopMetrics(), MetricsRegistry,
                  MetricsRegistry.snapshot)

#: The active registry; a no-op unless collection is on.
metrics = METRICS.current
#: Install a registry process-wide (``None`` disables); returns the
#: previous one.
set_metrics = METRICS.set_default


def collecting_metrics(registry: Optional[MetricsRegistry] = None):
    """Context manager: collect the calling thread's metrics — and its
    pool workers' — into ``registry`` (a fresh one by default), which
    it yields so the caller can render it after the block."""
    return METRICS.scoped(MetricsRegistry() if registry is None
                          else registry)
