"""Order statistics, the speed probe and the Prometheus text parser.

Kept inside the benchmark on purpose: the yardstick must not share
code with what it measures, so nothing here imports ``repro``.
"""

from __future__ import annotations

import math
import re
import signal
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


#: Iterations of the speed probe's loop.
PROBE_LOOPS = 100_000
#: The probe's time on the reference machine (a 2-vCPU Intel Xeon
#: container, CPython 3.11), in ms.  Measured times are scaled by
#: ``PROBE_REF_MS / probe`` so that they read as times on that machine.
PROBE_REF_MS = 6.6
#: The probe run inside an invocation takes every tenth step of the
#: loop, this often.
INLINE_STEP = 10
INLINE_EVERY_S = 0.1


def _loop_ms(step: int = 1) -> float:
    """Time of the probe's loop over every ``step``-th value, scaled to
    the whole loop.  Every step sees the same mix of small and large
    integers, so the reading does not depend on ``step``."""
    began = time.perf_counter()
    total = 0
    for i in range(0, PROBE_LOOPS, step):
        total += i * i % 7
    return (time.perf_counter() - began) * 1000 * step


def speed_probe_ms(repeats: int = 3) -> float:
    """Median of ``repeats`` timings of a fixed pure-Python loop, in ms.

    The benchmark's host shares its cores: the same work can take 40%
    longer for seconds at a time.  The probe slows down with it, so
    times divided by the probe's stay put while the program under test
    is unchanged, and move when it changes."""
    return statistics.median(_loop_ms() for _ in range(repeats))


class InlineProbe:
    """Runs a short speed probe every ``INLINE_EVERY_S`` from a timer
    signal while the ``with`` block runs, on the thread that runs it.

    A probe before and after a two-second invocation misses a slowdown
    that starts and ends inside it; this one samples the core the
    program is running on, throughout.  It costs the program about 0.7%
    of its time, the same on every run.  Readings are in full-probe
    milliseconds.  Only for a program that runs on this thread alone:
    worker processes would compete with the probe and slow it down
    themselves."""

    def __init__(self) -> None:
        self.readings: List[float] = []

    def _tick(self, signum, frame) -> None:
        self.readings.append(_loop_ms(INLINE_STEP))

    def __enter__(self) -> "InlineProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INLINE_EVERY_S, INLINE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_scale(probes_ms: Sequence[float]) -> float:
    """Factor that maps a time measured among these probes onto the
    reference machine."""
    return PROBE_REF_MS / statistics.fmean(probes_ms)


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolated linearly between
    the two nearest ranks of the sorted sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile if at least ten samples lie beyond it;
    otherwise the highest of the 90th percentile and the median that
    has that support, and the median when none has."""
    for level in (q, 90.0, 50.0):
        if level <= q and len(values) * (100.0 - level) / 100.0 >= 10:
            return percentile(values, level)
    return percentile(values, 50.0)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, computed the
    way ``statistics.quantiles(values, n=4)`` places the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / abs(centre) if centre else math.inf


# -- Prometheus text exposition ------------------------------------------

Sample = Tuple[str, Tuple[Tuple[str, str], ...]]

_LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Dict[Sample, float]:
    """Map ``(metric name, sorted label pairs)`` to the sample value for
    every sample line of a text exposition; comments are skipped."""
    samples: Dict[Sample, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, pairs)] = float(value)
    return samples


def value(samples: Dict[Sample, float], name: str, **labels: str) -> float:
    """The sample of ``name`` with exactly ``labels`` (0 when absent)."""
    return samples.get((name, tuple(sorted(labels.items()))), 0.0)


def histogram_buckets(samples: Dict[Sample, float],
                      name: str) -> List[Tuple[float, float]]:
    """``(upper bound, cumulative count)`` pairs of histogram ``name``,
    summed over its label sets and sorted by bound."""
    totals: Dict[float, float] = {}
    for (sample, pairs), count in samples.items():
        if sample != name + "_bucket":
            continue
        bound = dict(pairs).get("le")
        if bound is None:
            continue
        edge = math.inf if bound == "+Inf" else float(bound)
        totals[edge] = totals.get(edge, 0.0) + count
    return sorted(totals.items())


def bucket_delta(before: List[Tuple[float, float]],
                 after: List[Tuple[float, float]]
                 ) -> List[Tuple[float, float]]:
    """The histogram of the observations made between two scrapes."""
    earlier = dict(before)
    return [(edge, count - earlier.get(edge, 0.0)) for edge, count in after]


def histogram_quantile(buckets: List[Tuple[float, float]],
                       q: float) -> Optional[float]:
    """Quantile ``q`` (0..1) of a cumulative histogram, interpolated
    linearly inside the bucket that holds it (as PromQL does); ``None``
    for an empty histogram."""
    if not buckets or buckets[-1][1] <= 0:
        return None
    rank = q * buckets[-1][1]
    lower_edge, lower_count = 0.0, 0.0
    for edge, count in buckets:
        if count >= rank:
            if math.isinf(edge):
                return lower_edge
            width = count - lower_count
            share = (rank - lower_count) / width if width else 0.0
            return lower_edge + (edge - lower_edge) * share
        lower_edge, lower_count = edge, count
    return lower_edge
