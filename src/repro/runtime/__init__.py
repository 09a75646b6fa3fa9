"""Parallel multi-start execution runtime.

The paper's whole evaluation is multi-start: N seeded runs per
(algorithm, circuit) cell, reported as min/avg/std cut plus CPU time.
This package turns that start portfolio into a first-class job that can
be executed serially or across a ``fork``-based worker pool with the
identical seed stream (:func:`repro.rng.child_seeds`), per-run fault
isolation, wall-clock budgets, retries, and structured per-run records.

Layers
------
* :mod:`.job`      — :class:`Algorithm` and :class:`Portfolio`: N seeded
  starts of one named partitioner, the one way to run a multistart.
* :mod:`.executor` — :class:`SerialExecutor` / :class:`ProcessExecutor`
  plus the :func:`get_executor` / :func:`execute` entry points.
* :mod:`.records`  — :class:`RunRecord` / :class:`PortfolioResult`,
  aggregating into the harness's ``CellStats``.
* :mod:`.checkpoint` — :class:`MatrixCheckpoint`: JSONL streaming of
  finished records; resume a killed sweep at (cell, start) granularity.
* :mod:`.cache`    — :class:`HierarchyCache`: coarsen once per
  (circuit, config, seed), refine many.
* :mod:`.mlstart`  — :func:`ml_portfolio`: the hierarchy-reusing ML
  multi-start protocol.

Determinism contract: a portfolio's successful cut list is a pure
function of its seed — identical at any worker count — because every
start derives from the same position-stable child-seed sequence and
runs independently.  Only the timing fields differ between executors.
"""

from .cache import HierarchyCache, default_hierarchy_cache
from .checkpoint import MatrixCheckpoint
from .executor import (DEFAULT_COLLECT_TIMEOUT, ProcessExecutor,
                       SerialExecutor, execute, get_executor)
from .job import Algorithm, BatchPortfolio, Job, Portfolio, backoff_delay
from .mlstart import ml_portfolio, ml_reuse_algorithm
from .records import (FINGERPRINT_DIGEST_LENGTH, FailureReport,
                      PortfolioResult, RunRecord, RETRYABLE_STATUSES,
                      STATUS_FAILED, STATUS_INVALID, STATUS_OK,
                      STATUS_TIMEOUT, fingerprint_digest)

__all__ = [
    "Algorithm",
    "Job",
    "Portfolio",
    "BatchPortfolio",
    "backoff_delay",
    "fingerprint_digest",
    "FINGERPRINT_DIGEST_LENGTH",
    "RunRecord",
    "PortfolioResult",
    "FailureReport",
    "MatrixCheckpoint",
    "STATUS_OK",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "STATUS_INVALID",
    "RETRYABLE_STATUSES",
    "DEFAULT_COLLECT_TIMEOUT",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "execute",
    "HierarchyCache",
    "default_hierarchy_cache",
    "ml_reuse_algorithm",
    "ml_portfolio",
]
