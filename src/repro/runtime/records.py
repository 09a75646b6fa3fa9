"""Structured results of portfolio execution.

A portfolio run produces one :class:`RunRecord` per start — success or
not — and a :class:`PortfolioResult` aggregating them.  Records keep
both wall-clock and CPU time (the paper's Table VIII reports CPU
seconds; earlier versions of the harness conflated the two) plus enough
provenance (seed, worker, attempts) to re-run any individual start.

Status transitions are centralised here: executors build records in the
``ok``/``failed`` states and demote them through the ``mark_*`` methods
(one auditable code path for every ``status``/``error`` change), so the
serial and pool executors cannot drift apart in how they flag the same
fault.  Records round-trip through :meth:`RunRecord.to_json_dict` /
:meth:`RunRecord.from_json_dict` for the sweep checkpoint (the full
``result`` object is deliberately not persisted — a checkpoint stores
outcomes, not partitions).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover
    from ..harness.runner import CellStats

__all__ = ["RunRecord", "PortfolioResult", "FailureReport",
           "fingerprint_digest", "FINGERPRINT_DIGEST_LENGTH",
           "STATUS_OK", "STATUS_FAILED", "STATUS_TIMEOUT", "STATUS_INVALID",
           "RETRYABLE_STATUSES"]

#: Hex digits kept from the SHA-256 of a fingerprint.  Shared by the
#: run ledger and the service result cache so the two always agree on
#: what "the fingerprint of a run" means.
FINGERPRINT_DIGEST_LENGTH = 16


def fingerprint_digest(fingerprint: str,
                       length: int = FINGERPRINT_DIGEST_LENGTH) -> str:
    """SHA-256 hex digest (truncated) of a fingerprint string.

    The one hashing convention for outcome identity: the ledger keys
    entries on it, the service caches results under it, and
    ``repro ledger``/``compare`` tooling matches runs by it.  Pinned by
    a golden-value test — changing this silently would orphan every
    recorded ledger entry.
    """
    return hashlib.sha256(
        fingerprint.encode("utf-8")).hexdigest()[:length]

#: The start returned a result.
STATUS_OK = "ok"
#: The start raised (or its worker died); ``error`` holds the details.
STATUS_FAILED = "failed"
#: The start exceeded its wall-clock budget (parallel executors kill
#: the worker; the serial executor can only flag it after the fact).
STATUS_TIMEOUT = "timeout"
#: The start returned a result that failed trust-but-verify
#: recomputation (wrong cut, infeasible balance): treated like a
#: failure — retried, and never aggregated into cut statistics.
STATUS_INVALID = "invalid"

#: Statuses the executors re-run (budget overruns are not retried —
#: a hung worker already cost its pool slot).
RETRYABLE_STATUSES = (STATUS_FAILED, STATUS_INVALID)

#: Fields persisted to / restored from a checkpoint line, in order.
_JSON_FIELDS = ("index", "seed", "status", "cut", "wall_seconds",
                "cpu_seconds", "worker", "error", "attempts")


@dataclass
class RunRecord:
    """Outcome of one seeded start of a portfolio.

    ``cut`` and ``result`` are ``None`` unless ``status == "ok"``
    (``result`` additionally requires the portfolio's ``keep_results``).
    ``attempts`` counts executions including retries; ``worker``
    identifies who ran it (``"serial"`` or ``"pid:<n>"``).
    """

    index: int
    seed: int
    status: str
    cut: Optional[int] = None
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    worker: str = "serial"
    error: Optional[str] = None
    attempts: int = 1
    result: Optional[object] = None
    #: Telemetry a pool worker captured for this start, keyed by
    #: channel (``trace`` events, ``record`` events, a ``metrics``
    #: snapshot), shipped back over the result channel; the parent
    #: clears it after absorbing it into its own sinks.  Never
    #: persisted to checkpoints (a checkpoint stores outcomes, not
    #: telemetry).
    telemetry: Optional[Dict[str, object]] = None
    #: Peak tracemalloc bytes over this start, captured only when
    #: memory profiling is enabled (``repro serve --profile-dir`` or
    #: :func:`repro.obs.profile.enable_memory_profiling`).  Not part of
    #: the checkpoint round-trip: telemetry, not an outcome.
    peak_mem_bytes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def retryable(self) -> bool:
        return self.status in RETRYABLE_STATUSES

    # -- status transitions (the only places records are demoted) ------

    def mark_timeout(self, message: str) -> "RunRecord":
        """Demote to ``timeout``, discarding any overrun result."""
        self.status = STATUS_TIMEOUT
        self.cut = None
        self.result = None
        self.error = message
        return self

    def mark_invalid(self, message: str) -> "RunRecord":
        """Demote to ``invalid``: the returned solution failed
        verification and must never reach cut statistics."""
        self.status = STATUS_INVALID
        self.cut = None
        self.result = None
        self.error = message
        return self

    def mark_failed(self, message: str) -> "RunRecord":
        """Demote to ``failed`` (e.g. the worker died before returning)."""
        self.status = STATUS_FAILED
        self.cut = None
        self.result = None
        self.error = message
        return self

    # -- checkpoint round-trip -----------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serialisable view (drops the in-memory ``result``)."""
        return {name: getattr(self, name) for name in _JSON_FIELDS}

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "RunRecord":
        try:
            return cls(**{name: data[name] for name in _JSON_FIELDS})
        except KeyError as exc:
            raise HarnessError(
                f"checkpoint record is missing field {exc}") from None


@dataclass
class FailureReport:
    """Structured account of a portfolio's non-surviving starts."""

    algorithm: str
    circuit: str
    total: int
    by_status: Dict[str, int]
    failures: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.total - self.by_status.get(STATUS_OK, 0)

    def render(self) -> str:
        """Multi-line human-readable report."""
        counts = ", ".join(f"{status}={n}"
                           for status, n in sorted(self.by_status.items()))
        lines = [f"{self.algorithm} on {self.circuit}: "
                 f"{self.failed}/{self.total} starts lost ({counts})"]
        for f in self.failures:
            lines.append(f"  start {f['index']} (seed {f['seed']}): "
                         f"{f['status']} after {f['attempts']} attempt(s)"
                         f" — {f['error']}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {"algorithm": self.algorithm, "circuit": self.circuit,
                "total": self.total, "by_status": dict(self.by_status),
                "failures": list(self.failures)}


@dataclass
class PortfolioResult:
    """All records of one portfolio, in start-index order.

    The cut list over successful runs is a pure function of the seed
    sequence, so it is identical at any worker count; only the timing
    fields vary between executors.
    """

    algorithm: str
    circuit: str
    records: List[RunRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def ok_records(self) -> List[RunRecord]:
        return [r for r in self.records if r.ok]

    @property
    def failures(self) -> List[RunRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def ok_fraction(self) -> float:
        """Surviving fraction of the portfolio (1.0 when empty)."""
        return len(self.ok_records) / self.runs if self.runs else 1.0

    @property
    def cuts(self) -> List[int]:
        """Cuts of the successful runs, in start-index order."""
        return [r.cut for r in self.ok_records]

    @property
    def cpu_seconds(self) -> float:
        """Total CPU time over all runs (summed across workers)."""
        return sum(r.cpu_seconds for r in self.records)

    @property
    def peak_mem_bytes(self) -> Optional[int]:
        """Largest per-start tracemalloc peak, or ``None`` when memory
        profiling was off for the whole portfolio."""
        peaks = [r.peak_mem_bytes for r in self.records
                 if r.peak_mem_bytes is not None]
        return max(peaks) if peaks else None

    @property
    def best(self) -> RunRecord:
        """The successful record with the minimum cut."""
        ok = self.ok_records
        if not ok:
            raise HarnessError(
                f"all {self.runs} runs of {self.algorithm!r} on "
                f"{self.circuit!r} failed; no best record")
        return min(ok, key=lambda r: (r.cut, r.index))

    def fingerprint(self) -> str:
        """Deterministic digest of the portfolio's *outcomes*.

        One line per record — ``index:seed:status:cut:attempts`` — plus
        a header.  Everything scheduling-dependent (timings, worker
        ids, error text) is excluded, so the fingerprint is the
        byte-identical-across-worker-counts contract: the same
        ``(seed, fault plan)`` must produce the same fingerprint at
        ``jobs=1`` and ``jobs=N``, and a resumed sweep the same
        fingerprint as an uninterrupted one.
        """
        lines = [f"{self.algorithm}|{self.circuit}|runs={self.runs}"]
        lines += [f"{r.index}:{r.seed}:{r.status}:{r.cut}:{r.attempts}"
                  for r in self.records]
        return "\n".join(lines)

    def fingerprint_digest(self) -> str:
        """The truncated SHA-256 of :meth:`fingerprint` — the form the
        ledger records and the service cache keys on."""
        return fingerprint_digest(self.fingerprint())

    def failure_report(self) -> FailureReport:
        """Structured summary of every non-surviving start."""
        by_status: Dict[str, int] = {}
        for r in self.records:
            by_status[r.status] = by_status.get(r.status, 0) + 1
        return FailureReport(
            algorithm=self.algorithm, circuit=self.circuit,
            total=self.runs, by_status=by_status,
            failures=[{"index": r.index, "seed": r.seed,
                       "status": r.status, "attempts": r.attempts,
                       "error": r.error}
                      for r in self.failures])

    def require_quorum(self, min_ok_fraction: Optional[float]
                       ) -> "PortfolioResult":
        """Enforce the sweep's survival quorum.

        With ``min_ok_fraction=None`` this is a no-op (the historical
        contract: statistics raise only when *zero* starts survive).
        Otherwise the portfolio must keep at least that fraction of its
        starts; below quorum a :class:`HarnessError` carries the full
        structured failure report.
        """
        if min_ok_fraction is None:
            return self
        if not 0.0 < min_ok_fraction <= 1.0:
            raise HarnessError(
                f"min_ok_fraction must be in (0, 1], got {min_ok_fraction}")
        if self.ok_fraction < min_ok_fraction:
            raise HarnessError(
                f"quorum not met: {len(self.ok_records)}/{self.runs} starts "
                f"survived (< {min_ok_fraction:g})\n"
                + self.failure_report().render())
        return self

    def to_cell_stats(self) -> "CellStats":
        """Aggregate into the harness's per-table-cell statistics."""
        from ..harness.runner import CellStats
        return CellStats(algorithm=self.algorithm, circuit=self.circuit,
                         cuts=self.cuts, cpu_seconds=self.cpu_seconds,
                         wall_seconds=self.wall_seconds,
                         failures=len(self.failures),
                         report=(self.failure_report()
                                 if self.failures else None))

    def summary(self) -> str:
        """One log line: ``MLC on struct: 9/10 ok, min 61, 2.1s wall``."""
        ok = self.ok_records
        min_cut = min((r.cut for r in ok), default=None)
        return (f"{self.algorithm} on {self.circuit}: "
                f"{len(ok)}/{self.runs} ok, min "
                f"{'-' if min_cut is None else min_cut}, "
                f"{self.wall_seconds:.2f}s wall / "
                f"{self.cpu_seconds:.2f}s cpu, jobs={self.jobs}")
