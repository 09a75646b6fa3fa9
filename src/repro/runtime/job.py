"""Portfolio job descriptions.

A :class:`Portfolio` is the unit the executors run, and the one way
any caller runs N starts: ``runs`` seeded starts of one
:class:`Algorithm` on one circuit.  Per-start seeds come from
:func:`repro.rng.child_seeds`, so the seed sequence — and therefore
the cut set — is independent of how the starts are scheduled, and
start ``i`` is the same whether 10 or 100 runs were asked for.

Robustness knobs live here too: an armed :class:`~repro.faults.FaultPlan`
(``faults=``), trust-but-verify recomputation of returned solutions
(``verify=``), and bounded exponential retry backoff whose jitter is
drawn from the portfolio's own seed stream (``backoff_seconds=``), so
retry timing — like everything else — is a pure function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..errors import ConfigError
from ..hypergraph import Hypergraph
from ..rng import SeedLike, child_seeds, stable_seed

__all__ = ["Algorithm", "Job", "Portfolio", "BatchPortfolio",
           "backoff_delay"]


def backoff_delay(base: float, cap: float, seed: SeedLike, index: int,
                  attempt: int) -> float:
    """Bounded exponential backoff with deterministic jitter.

    ``min(cap, base * 2^(attempt-2)) * U`` where ``U`` in ``[0.5, 1.0)``
    is drawn from an RNG keyed on ``(seed, index, attempt)`` — the same
    derivation style as the child seeds, so every consumer (portfolio
    retries, the service client's reconnect loop) sleeps a schedule
    that is a pure function of its seed.  ``attempt`` 1 (the first
    execution) and a zero base never sleep.
    """
    if attempt <= 1 or base <= 0.0:
        return 0.0
    bounded = min(cap, base * 2.0 ** (attempt - 2))
    rng = random.Random(stable_seed("backoff", str(seed), index, attempt))
    return bounded * (0.5 + 0.5 * rng.random())


@dataclass(frozen=True)
class Algorithm:
    """A named partitioner: ``fn(hg, seed) -> result`` with ``.cut``."""

    name: str
    fn: Callable[[Hypergraph, int], object]


@dataclass(frozen=True)
class Job:
    """One start: position in the portfolio plus its derived seed."""

    index: int
    seed: int


@dataclass
class Portfolio:
    """``runs`` seeded starts of ``algorithm`` on ``hg``.

    ``algorithm`` is anything with a ``name`` and an
    ``fn(hg, seed) -> result`` whose result exposes ``cut`` —
    an :class:`Algorithm` in practice.

    ``budget_seconds`` bounds each start's wall clock (best effort: the
    process executor stops waiting and kills stragglers at shutdown;
    the serial executor can only flag an overrun after it finishes).
    ``retries`` re-executes raising starts with the same seed; retry is
    for flaky environments, a deterministic crash fails every attempt.
    ``keep_results`` stores each start's full result object on its
    record (needed to recover the best partition, costs memory).

    ``verify`` recomputes each returned solution's cut (and, when a
    balance tolerance float is given, its balance) from scratch with
    the reference objectives; a mismatch demotes the record to
    ``invalid``, which is retried like a failure.  ``faults`` arms a
    :class:`~repro.faults.FaultPlan` on every start.
    ``backoff_seconds`` (base) and ``backoff_cap`` shape the bounded
    exponential backoff slept before each retry.

    ``trace`` controls observability for this portfolio: ``None``/
    ``False`` leaves the ambient tracer alone (no events unless the
    caller already enabled one), ``True`` emits into whatever tracer is
    ambient, and a path string writes the whole run — including events
    shipped back from worker processes — to that file as a Chrome
    trace-event stream.  Tracing never touches the RNG streams, so the
    outcome fingerprint is identical with it on or off.
    """

    algorithm: object
    hg: Hypergraph
    runs: int
    seed: SeedLike = 0
    budget_seconds: Optional[float] = None
    #: Wall-clock deadline for the *whole portfolio*, measured from the
    #: moment an executor starts running it.  Once exhausted, starts
    #: that have not begun are recorded ``timeout`` without running,
    #: in-flight pool workers are killed at shutdown, and the partial
    #: result (every start that did finish) is returned — the
    #: time-budgeted "best answer you have" contract the service's
    #: per-request deadlines ride on.  The serial executor cannot
    #: pre-empt a running start, so serially the deadline only gates
    #: *starting* work.
    deadline_seconds: Optional[float] = None
    retries: int = 0
    keep_results: bool = False
    faults: Optional[object] = None
    verify: Union[bool, float] = False
    backoff_seconds: float = 0.0
    backoff_cap: float = 30.0
    trace: Union[None, bool, str] = None
    #: Decision recording for this portfolio, with the same shape as
    #: ``trace``: ``None``/``False`` leaves the ambient recorder alone,
    #: ``True`` emits into whatever recorder is ambient, and a path
    #: string writes the run's decision stream — per-start blocks
    #: shipped back from worker processes included — to that file (see
    #: :mod:`repro.obs.recorder`).  Like tracing, recording never
    #: touches the RNG streams: same seed, same cuts, on or off.
    record: Union[None, bool, str] = None
    #: Correlation ID for request-scoped tracing.  When set, every span
    #: and instant this portfolio's execution emits — in the parent or
    #: shipped back from forked workers — carries ``trace_id`` in its
    #: args, and the ledger entry records it, so a merged service trace
    #: can be regrouped into one tree per originating request.  Pure
    #: metadata: never touches seeds, scheduling, or the fingerprint.
    trace_id: Optional[str] = None

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigError(
                f"budget_seconds must be > 0, got {self.budget_seconds}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}")
        if not callable(getattr(self.algorithm, "fn", None)):
            raise ConfigError(
                "algorithm must expose a callable .fn(hg, seed)")
        if self.faults is not None and \
                not callable(getattr(self.faults, "decide", None)):
            raise ConfigError(
                "faults must be a FaultPlan (expose decide(index, attempt))")
        if isinstance(self.verify, float) and not isinstance(self.verify,
                                                             bool):
            if not 0.0 <= self.verify < 1.0:
                raise ConfigError(
                    f"verify tolerance must be in [0, 1), got {self.verify}")
        if self.backoff_seconds < 0:
            raise ConfigError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}")
        if self.backoff_cap <= 0:
            raise ConfigError(
                f"backoff_cap must be > 0, got {self.backoff_cap}")
        if self.trace is not None and not isinstance(self.trace, (bool, str)):
            raise ConfigError(
                f"trace must be None, a bool, or a path string, "
                f"got {type(self.trace).__name__}")
        if self.record is not None and \
                not isinstance(self.record, (bool, str)):
            raise ConfigError(
                f"record must be None, a bool, or a path string, "
                f"got {type(self.record).__name__}")
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise ConfigError(
                f"trace_id must be None or a string, "
                f"got {type(self.trace_id).__name__}")

    @property
    def name(self) -> str:
        return getattr(self.algorithm, "name", "anonymous")

    @property
    def fn(self) -> Callable[[Hypergraph, int], object]:
        return self.algorithm.fn

    def jobs(self) -> List[Job]:
        """The start list; position-stable in ``runs`` like the paper's
        10-of-100 prefix protocol."""
        return [Job(index=i, seed=s)
                for i, s in enumerate(child_seeds(self.seed, self.runs))]

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Sleep before running ``attempt`` of start ``index``.

        Bounded exponential backoff with deterministic jitter:
        ``min(cap, base * 2^(attempt-2)) * U`` where ``U`` in
        ``[0.5, 1.0)`` is drawn from an RNG keyed on the portfolio's
        own seed and the start's identity — the same derivation style
        as the child seeds, so serial and pooled retries sleep the
        same schedule.  ``attempt`` 1 (the first execution) and a zero
        base never sleep.
        """
        return backoff_delay(self.backoff_seconds, self.backoff_cap,
                             self.seed, index, attempt)


@dataclass
class BatchPortfolio(Portfolio):
    """A portfolio whose start list is supplied explicitly.

    The normal :class:`Portfolio` derives its seeds from one parent
    seed; a batch portfolio instead carries a caller-built ``job_list``
    whose seeds may come from *several* parent seeds.  This is the
    runtime primitive behind the service's request batcher: N
    same-netlist/same-config requests with different seeds merge their
    child-seed streams into one executor invocation (one pool spin-up,
    one shared netlist), and the collector's records are split back per
    request afterwards.

    Indices must be exactly ``0..runs-1`` in order — the executors key
    retries, checkpoints, and record ordering on the index, so a batch
    is position-stable the same way a plain portfolio is.
    """

    job_list: Optional[List[Job]] = None

    def __post_init__(self):
        super().__post_init__()
        if not self.job_list:
            raise ConfigError("BatchPortfolio requires a non-empty job_list")
        if len(self.job_list) != self.runs:
            raise ConfigError(
                f"job_list length {len(self.job_list)} != runs {self.runs}")
        for position, job in enumerate(self.job_list):
            if job.index != position:
                raise ConfigError(
                    f"job_list indices must be 0..runs-1 in order; "
                    f"position {position} holds index {job.index}")

    def jobs(self) -> List[Job]:
        return list(self.job_list)
