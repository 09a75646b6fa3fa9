"""Multistart experiment runner.

The paper's protocol: run each algorithm N times per circuit and report
minimum cut, average cut, standard deviation, and total CPU time.  An
:class:`~repro.runtime.Algorithm` is a named, seeded partitioner;
:func:`run_cell` produces one table cell's statistics and
:func:`run_matrix` sweeps algorithms x circuits.  Every table and
figure generator in :mod:`repro.harness.experiments` runs its cells
through :func:`run_matrix`.

Both run one :class:`~repro.runtime.Portfolio` per cell: ``jobs=1``
runs the starts serially in-process, ``jobs=N`` fans them out to a
worker pool.  Either way the per-start seeds come from the same
:func:`repro.rng.child_seeds` stream, so the cut statistics are
identical at any worker count; only the timing columns change.

Long sweeps get three robustness knobs threaded straight through to
the runtime: ``faults=`` (a deterministic
:class:`~repro.faults.FaultPlan`, for chaos testing the sweep itself),
``verify=`` (trust-but-verify recomputation of every returned
solution), and ``min_ok_fraction`` (the survival quorum: a sweep
degrades to statistics over the surviving starts — with a structured
failure report on the cell — instead of dying because a few starts
did).  ``run_matrix(checkpoint=...)`` additionally streams finished
records to a JSONL file and resumes a killed sweep from it, skipping
finished (cell, start) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, pstdev
from typing import Dict, List, Optional, Sequence, Union

from ..errors import HarnessError
from ..hypergraph import Hypergraph
from ..rng import SeedLike, stable_seed
from ..runtime import Algorithm, MatrixCheckpoint, Portfolio, execute

__all__ = ["Algorithm", "CellStats", "run_cell", "run_matrix"]


@dataclass
class CellStats:
    """min/avg/std cut and wall/CPU time over N runs of one algorithm
    on one circuit.

    ``cpu_seconds`` is CPU time (``time.process_time``, summed across
    workers when the cell ran in parallel) — what the paper's Table
    VIII reports.  ``wall_seconds`` is elapsed wall clock for the whole
    cell.  ``failures`` counts runs that crashed, timed out, or
    returned a result that failed verification; their cuts are absent
    from ``cuts``, and ``report`` (when any start was lost) carries the
    structured per-start account of what went wrong.
    """

    algorithm: str
    circuit: str
    cuts: List[int]
    cpu_seconds: float
    wall_seconds: float
    failures: int = 0
    report: Optional[object] = None

    @property
    def runs(self) -> int:
        return len(self.cuts)

    def _require_cuts(self) -> List[int]:
        if not self.cuts:
            raise HarnessError(
                f"no successful runs of {self.algorithm!r} on "
                f"{self.circuit!r} ({self.failures} failed); "
                "cut statistics are undefined")
        return self.cuts

    @property
    def min_cut(self) -> int:
        return min(self._require_cuts())

    @property
    def avg_cut(self) -> float:
        return mean(self._require_cuts())

    @property
    def std_cut(self) -> float:
        return pstdev(self._require_cuts())


def run_cell(algorithm: Algorithm, hg: Hypergraph, runs: int,
             seed: SeedLike = 0,
             jobs: int = 1,
             executor=None,
             budget_seconds: Optional[float] = None,
             retries: int = 0,
             faults=None,
             verify: Union[bool, float] = False,
             min_ok_fraction: Optional[float] = None,
             backoff_seconds: float = 0.0,
             completed=None,
             on_record=None,
             trace: Union[None, bool, str] = None,
             metrics_out: Optional[str] = None) -> CellStats:
    """Run one algorithm ``runs`` times on one circuit.

    ``jobs``/``executor`` select the runtime executor (see
    :mod:`repro.runtime`); ``budget_seconds`` and ``retries`` are the
    per-start fault-tolerance knobs, ``backoff_seconds`` the retry
    backoff base.  ``faults`` arms a deterministic
    :class:`~repro.faults.FaultPlan` on every start; ``verify``
    recomputes each returned solution from scratch (corrupt results
    become retried ``invalid`` records, never statistics).
    ``min_ok_fraction`` enforces the survival quorum: below it the cell
    raises :class:`HarnessError` with a structured failure report; at
    or above it the statistics cover the surviving starts.
    ``completed``/``on_record`` are the checkpoint hooks (see
    :func:`run_matrix`).  Defaults reproduce the original serial
    semantics, except that a raising run is recorded as a failure
    instead of aborting the sweep.

    ``trace`` writes the cell's Chrome trace-event stream to a path
    (or, with ``True``, emits into the ambient tracer); ``metrics_out``
    writes the cell's metrics in the Prometheus text format after the
    run.  Neither touches the RNG streams, so the cut statistics are
    unchanged by either.  ``runs < 1`` raises
    :class:`~repro.errors.ConfigError` from
    :class:`~repro.runtime.Portfolio`.
    """
    portfolio = Portfolio(algorithm=algorithm, hg=hg, runs=runs, seed=seed,
                          budget_seconds=budget_seconds, retries=retries,
                          faults=faults, verify=verify,
                          backoff_seconds=backoff_seconds, trace=trace)
    if metrics_out is not None:
        from ..obs import collecting_metrics, write_prometheus
        with collecting_metrics() as registry:
            outcome = execute(portfolio, jobs=jobs, executor=executor,
                              completed=completed, on_record=on_record)
        write_prometheus(registry, metrics_out)
    else:
        outcome = execute(portfolio, jobs=jobs, executor=executor,
                          completed=completed, on_record=on_record)
    return outcome.require_quorum(min_ok_fraction).to_cell_stats()


def run_matrix(algorithms: Sequence[Algorithm],
               circuits: Sequence[Hypergraph],
               runs: int,
               seed: SeedLike = 0,
               jobs: int = 1,
               budget_seconds: Optional[float] = None,
               retries: int = 0,
               faults=None,
               verify: Union[bool, float] = False,
               min_ok_fraction: Optional[float] = None,
               backoff_seconds: float = 0.0,
               checkpoint=None,
               trace: Union[None, bool, str] = None,
               metrics_out: Optional[str] = None
               ) -> Dict[str, Dict[str, CellStats]]:
    """Sweep ``algorithms x circuits``; result[circuit][algorithm].

    Each (circuit, algorithm) cell derives its seed from the top-level
    seed, the circuit name, and the algorithm name, so adding a row or
    column never changes existing cells.  ``jobs`` parallelises the
    starts within each cell, which keeps the per-cell seed derivation
    (and therefore every cut) byte-identical to a serial sweep.

    ``checkpoint`` names a JSONL file: every finished record is
    streamed to it as it completes, and a sweep that died mid-flight
    resumes from the same call by skipping the (cell, start) pairs
    already on disk — reproducing the uninterrupted sweep's outcomes
    exactly, because each start is a pure function of its
    position-stable seed.  A checkpoint written by a different sweep
    configuration is refused (:class:`~repro.errors.CheckpointError`).
    ``faults``/``verify``/``min_ok_fraction``/``backoff_seconds`` are
    threaded through to every cell (see :func:`run_cell`).

    ``trace`` writes one merged Chrome trace-event stream covering the
    *whole* sweep (a path, or ``True`` for the ambient tracer);
    ``metrics_out`` writes the sweep's metrics in the Prometheus text
    format after the last cell.
    """
    from contextlib import ExitStack
    ckpt = None
    if checkpoint is not None:
        ckpt = MatrixCheckpoint(
            checkpoint, seed=seed, runs=runs,
            algorithms=[a.name for a in algorithms],
            circuits=[hg.name for hg in circuits])
    try:
        with ExitStack() as stack:
            registry = None
            if isinstance(trace, str):
                from ..obs import tracing
                stack.enter_context(tracing(trace))
                trace = True  # cells emit into the now-ambient writer
            if metrics_out is not None:
                from ..obs import collecting_metrics
                registry = stack.enter_context(collecting_metrics())
            table: Dict[str, Dict[str, CellStats]] = {}
            for hg in circuits:
                row: Dict[str, CellStats] = {}
                for algorithm in algorithms:
                    cell_seed = stable_seed(str(seed), hg.name,
                                            algorithm.name)
                    completed = on_record = None
                    if ckpt is not None:
                        completed = ckpt.done(hg.name, algorithm.name)
                        on_record = (
                            lambda record, c=hg.name, a=algorithm.name:
                            ckpt.write(c, a, record))
                    row[algorithm.name] = run_cell(
                        algorithm, hg, runs, cell_seed, jobs=jobs,
                        budget_seconds=budget_seconds, retries=retries,
                        faults=faults, verify=verify,
                        min_ok_fraction=min_ok_fraction,
                        backoff_seconds=backoff_seconds,
                        completed=completed, on_record=on_record,
                        trace=trace)
                table[hg.name] = row
        if registry is not None:
            from ..obs import write_prometheus
            write_prometheus(registry, metrics_out)
        return table
    finally:
        if ckpt is not None:
            ckpt.close()
