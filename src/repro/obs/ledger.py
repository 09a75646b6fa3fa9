"""Append-only JSONL run ledger: every portfolio outcome, on disk.

PR 4 made the pipeline *emit* telemetry; this module makes it
*remember*.  Every portfolio execution — ``run_cell``, ``run_matrix``,
the CLI, the benchmark scripts: everything funnels through
:func:`repro.runtime.execute` — appends one JSON line describing its
outcome to the active ledger, so baseline comparisons can be
statistical (many recorded samples) instead of single-shot wall-clock
deltas that are mostly noise.

Activation
----------
The ledger is **on by default** and controlled by the ``REPRO_LEDGER``
environment variable:

* unset — append to ``.repro/ledger.jsonl`` under the current
  directory;
* a path — append there instead;
* ``off`` / ``0`` / ``none`` / ``false`` / empty — record nothing
  (the test suite sets this so unit tests do not grow a ledger).

Entry schema (version 1)
------------------------
One JSON object per line.  Stable identity fields: ``schema``,
``kind``, ``algorithm``, ``circuit``, ``runs``, ``jobs``, ``seed``,
``fingerprint`` (SHA-256 of :meth:`PortfolioResult.fingerprint`, the
scheduling-independent outcome digest), ``config_hash``, ``git_sha``,
``numpy_version`` (``None`` when numpy is absent — the ``spectral``
algorithm's results depend on it the way scalar results depend on the
Python version), ``statuses``, ``cuts``/``min_cut``/``median_cut``.
Readers treat every field as optional, so entries written before a
field existed stay readable, and so do entries that carry a field no
longer written (e.g. the old kernel-mode stamp).
Volatile fields (excluded by :func:`stable_view`, the
"byte-stable modulo timestamps" contract): ``ts``, ``wall_seconds``,
``cpu_seconds``, ``run_wall``, ``run_cpu``, ``phases``.

``phases`` — per-phase span rollups (``{name: {count, total_us}}``) —
is present only when the run was traced to a file; the ledger never
enables tracing on its own (recording must not perturb what it
records).

Reading uses the lenient rule of the shared reader
(:func:`repro.obs.events.read_jsonl`), looser than the checkpoint's —
a ledger is shared, append-only, and possibly written by concurrent
processes, so *any* corrupt or truncated line is skipped with a
warning instead of poisoning every future read.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, Optional, Union

from .events import read_jsonl
from .log import get_logger

_log = get_logger("obs.ledger")

__all__ = ["LEDGER_ENV", "LEDGER_VERSION", "DEFAULT_LEDGER_PATH",
           "VOLATILE_FIELDS", "ledger_path", "ledger_enabled",
           "append_entry", "read_ledger", "record_result", "stable_view",
           "git_sha"]

#: Environment variable controlling the ledger (path, or an off value).
LEDGER_ENV = "REPRO_LEDGER"

#: Current entry schema version.
LEDGER_VERSION = 1

#: Where entries go when ``REPRO_LEDGER`` is unset.
DEFAULT_LEDGER_PATH = os.path.join(".repro", "ledger.jsonl")

_OFF_VALUES = ("off", "0", "none", "false", "")

#: Fields that legitimately differ between two runs of the same seeded
#: portfolio (timestamps and timings).  Everything else is a pure
#: function of the seed — :func:`stable_view` strips these so the
#: byte-stability contract can be asserted and so the comparator never
#: keys on noise.
VOLATILE_FIELDS = frozenset(
    {"ts", "wall_seconds", "cpu_seconds", "run_wall", "run_cpu", "phases",
     "trace_id", "peak_mem_bytes"})


def ledger_path() -> Optional[Path]:
    """The active ledger path, or ``None`` when recording is off."""
    raw = os.environ.get(LEDGER_ENV)
    if raw is None:
        return Path(DEFAULT_LEDGER_PATH)
    if raw.strip().lower() in _OFF_VALUES:
        return None
    return Path(raw)


def ledger_enabled() -> bool:
    return ledger_path() is not None


_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def git_sha(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """Short git SHA of the working tree at ``cwd``; ``None`` if
    unavailable (no git, not a repository).  Cached per directory —
    the ledger stamps every entry, and forking a subprocess per
    recorded run would dominate small portfolios."""
    key = str(cwd or os.getcwd())
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=key, capture_output=True, text=True, timeout=5)
            _GIT_SHA_CACHE[key] = (out.stdout.strip()
                                   if out.returncode == 0 else None)
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE[key] = None
    return _GIT_SHA_CACHE[key]


@functools.lru_cache(maxsize=None)
def _numpy_version() -> Optional[str]:
    """Installed numpy version, or ``None`` — stamped into every entry
    so ``spectral`` fingerprints can be audited against the library that
    produced them.  Read from the package metadata, once per process:
    importing numpy just for its version would load it into every
    process that appends an entry."""
    from importlib import metadata
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:  # pragma: no cover
        return None


def _config_hash(portfolio, jobs: int) -> str:
    """Digest of the knobs that shape a portfolio's outcomes.

    Two entries with equal ``config_hash`` ran the same experiment
    (same algorithm, circuit, runs, seed, robustness knobs), so their
    cut samples are comparable; ``jobs`` is deliberately included in
    the entry but *not* the hash — worker count never changes cuts.
    """
    knobs = {
        "algorithm": getattr(portfolio.algorithm, "name", "anonymous"),
        "circuit": portfolio.hg.name,
        "runs": portfolio.runs,
        "seed": str(portfolio.seed),
        "budget_seconds": portfolio.budget_seconds,
        "retries": portfolio.retries,
        "verify": repr(portfolio.verify),
        "backoff_seconds": portfolio.backoff_seconds,
        "faults": repr(portfolio.faults) if portfolio.faults else None,
    }
    canon = json.dumps(knobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _phase_rollup(trace_path: Union[str, Path]
                  ) -> Optional[Dict[str, Dict[str, int]]]:
    """Reduce a just-written trace file to ``{phase: {count, total_us}}``:
    one fold over its complete (``"X"``) spans, the same per-name
    totals :func:`~repro.obs.summary.summarize_trace` reports."""
    from .trace import read_trace
    phases: Dict[str, Dict[str, int]] = {}
    try:
        for event in read_trace(trace_path):
            if not isinstance(event, dict) or event.get("ph") != "X":
                continue
            try:
                dur = int(event.get("dur") or 0)
            except (TypeError, ValueError):
                dur = 0
            stats = phases.setdefault(str(event.get("name", "?")),
                                      {"count": 0, "total_us": 0})
            stats["count"] += 1
            stats["total_us"] += dur
    except Exception as exc:  # never let telemetry rollups kill a run
        _log.warning("could not roll up trace %s for the ledger: %s",
                     trace_path, exc)
        return None
    return dict(sorted(phases.items())) or None


def build_entry(result, portfolio, jobs: int = 1,
                trace_path: Optional[str] = None) -> Dict[str, object]:
    """Construct a schema-v1 ledger entry from a finished portfolio.

    ``result`` is a :class:`~repro.runtime.PortfolioResult`;
    ``portfolio`` the :class:`~repro.runtime.Portfolio` that produced
    it.  Pure construction — nothing is written.
    """
    from ..runtime.records import fingerprint_digest
    cuts = result.cuts
    statuses: Dict[str, int] = {}
    for record in result.records:
        statuses[record.status] = statuses.get(record.status, 0) + 1
    fingerprint = fingerprint_digest(result.fingerprint())
    entry: Dict[str, object] = {
        "schema": LEDGER_VERSION,
        "kind": "portfolio",
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "algorithm": result.algorithm,
        "circuit": result.circuit,
        "runs": result.runs,
        "jobs": jobs,
        "seed": str(portfolio.seed),
        "fingerprint": fingerprint,
        "config_hash": _config_hash(portfolio, jobs),
        "git_sha": git_sha(),
        "numpy_version": _numpy_version(),
        "statuses": statuses,
        "cuts": list(cuts),
        "min_cut": min(cuts) if cuts else None,
        "median_cut": median(cuts) if cuts else None,
        "wall_seconds": round(result.wall_seconds, 6),
        "cpu_seconds": round(result.cpu_seconds, 6),
        "run_wall": [round(r.wall_seconds, 6) for r in result.records],
        "run_cpu": [round(r.cpu_seconds, 6) for r in result.records],
    }
    trace_id = getattr(portfolio, "trace_id", None)
    if trace_id is not None:
        # Request correlation: the same ID the serving path echoes in
        # the response and stamps into every span of the merged trace.
        entry["trace_id"] = trace_id
    peak = getattr(result, "peak_mem_bytes", None)
    if peak is not None:
        entry["peak_mem_bytes"] = peak
    if trace_path:
        phases = _phase_rollup(trace_path)
        if phases is not None:
            entry["phases"] = phases
    return entry


def append_entry(entry: Dict[str, object],
                 path: Union[str, Path, None] = None) -> Optional[Path]:
    """Append one entry to the ledger (explicit ``path`` or the active
    one).  Returns the path written, or ``None`` when recording is off.

    One ``open(append)``/``write``/``close`` per entry: a single line,
    flushed, so concurrent recorders interleave whole lines.
    """
    target = Path(path) if path is not None else ledger_path()
    if target is None:
        return None
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"),
                      default=str)
    with open(target, "a", encoding="utf-8") as f:
        f.write(line + "\n")
    return target


def record_result(result, portfolio, jobs: int = 1,
                  trace_path: Optional[str] = None
                  ) -> Optional[Dict[str, object]]:
    """Build and append a ledger entry for a finished portfolio.

    The runtime's one recording hook (:func:`repro.runtime.execute`
    calls it after every portfolio).  Never raises: a full disk or
    read-only checkout costs a warning, not the sweep.
    """
    if not ledger_enabled():
        return None
    try:
        entry = build_entry(result, portfolio, jobs=jobs,
                            trace_path=trace_path)
        append_entry(entry)
        return entry
    except Exception as exc:
        _log.warning("could not record run in ledger: %s", exc)
        return None


def read_ledger(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Yield entries from a ledger file, oldest first.

    Corrupt or truncated lines (interrupted writers, concurrent
    appends across filesystems) are skipped with a warning; entries
    from a *newer* schema than this reader understands are skipped the
    same way instead of being misinterpreted.
    """
    path = Path(path)
    for entry in read_jsonl(path, kind="ledger"):
        schema = entry.get("schema")
        if not isinstance(schema, int) or schema > LEDGER_VERSION:
            _log.warning("%s: skipping ledger entry with unsupported "
                         "schema %r", path, schema)
            continue
        yield entry


def stable_view(entry: Dict[str, object]) -> Dict[str, object]:
    """The entry minus its volatile (timestamp/timing) fields.

    Two same-seed runs of the same portfolio produce identical stable
    views — the determinism contract the ledger tests pin.
    """
    return {k: v for k, v in entry.items() if k not in VOLATILE_FIELDS}
