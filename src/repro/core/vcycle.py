"""V-cycle iteration: repeated restricted multilevel refinement.

An extension in the spirit of the paper's "more opportunities to refine"
argument, made standard by hMETIS shortly after: given a solution, run
the multilevel engine *again* with coarsening restricted so that only
modules on the same side may merge.  The existing solution is then
representable at every coarse level and seeds the coarsest
partitioning, so each V-cycle can only keep or improve the cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ClusteringError, ConfigError
from ..hypergraph import Hypergraph
from ..obs import recorder, tracer
from ..partition import Partition, cut
from ..rng import SeedLike, make_rng
from .config import MLConfig
from ..fm.engine import FMResult, fm_bipartition
from .ml import _coarsen, _uncoarsen, ml_bipartition

__all__ = ["VCycleResult", "ml_vcycle"]


@dataclass
class VCycleResult:
    """Outcome of an initial ML run plus ``cycles`` V-cycles."""

    partition: Partition
    cut: int
    cycles: int
    cycle_cuts: List[int] = field(default_factory=list)


def _restricted_cycle(hg: Hypergraph, solution: Partition,
                      config: MLConfig, rng: random.Random) -> FMResult:
    """One V-cycle: restricted coarsening, seeded uncoarsening."""
    fm_config = config.engine_config()
    hierarchy, labels = _coarsen(hg, config, rng,
                                 labels=list(solution.assignment))

    def refine(i: int, start: Optional[Partition]) -> FMResult:
        return fm_bipartition(hierarchy.netlists[i], initial=start,
                              config=fm_config, rng=rng)

    return _uncoarsen(hierarchy, refine,
                      initial=Partition(labels, solution.k))[0]


def ml_vcycle(hg: Hypergraph,
              cycles: int = 2,
              config: Optional[MLConfig] = None,
              initial: Optional[Partition] = None,
              seed: SeedLike = None,
              rng: Optional[random.Random] = None) -> VCycleResult:
    """ML bipartitioning followed by ``cycles`` restricted V-cycles.

    Each cycle re-coarsens under the current solution's side labels and
    refines on the way back up; the best solution seen is kept, so the
    sequence of cuts is non-increasing.
    """
    if cycles < 0:
        raise ConfigError(f"cycles must be >= 0, got {cycles}")
    config = config or MLConfig()
    rng = rng if rng is not None else make_rng(seed)
    if hg.num_modules < 2:
        raise ClusteringError("cannot bipartition fewer than two modules")

    if initial is None:
        first = ml_bipartition(hg, config=config, rng=rng)
        best_partition, best_cut = first.partition, first.cut
    else:
        if initial.k != 2:
            raise ConfigError("ml_vcycle refines bipartitions (k=2)")
        best_partition, best_cut = initial, cut(hg, initial)

    tr = tracer()
    rec = recorder()
    cycle_cuts = [best_cut]
    for i in range(cycles):
        t_cycle = tr.begin() if tr.enabled else 0
        if rec.enabled:
            rec.emit({"t": "cycle", "c": i + 1})
        candidate = _restricted_cycle(hg, best_partition, config, rng)
        candidate_cut = candidate.cut
        cycle_cuts.append(candidate_cut)
        if candidate_cut < best_cut:
            best_cut = candidate_cut
            best_partition = candidate.partition
        if tr.enabled:
            tr.end("vcycle.cycle", t_cycle, {
                "cycle": i + 1, "cut": candidate_cut,
                "best_cut": best_cut, "modules": hg.num_modules,
            })
    return VCycleResult(partition=best_partition, cut=best_cut,
                        cycles=cycles, cycle_cuts=cycle_cuts)
