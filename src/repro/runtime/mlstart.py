"""Hierarchy-reusing multi-start ML portfolios.

:func:`ml_portfolio` is the runtime's answer to the paper's Table IV-VII
protocol: coarsen a circuit once per (config, seed), then fan N
refinement starts out to the executor.  The shared hierarchy is built
from the portfolio seed, so the result is deterministic and identical
at any worker count; it differs from N fully independent
``ml_bipartition`` runs (which would each coarsen with their own start
seed), trading that per-start coarsening diversity for an N-fold
reduction in coarsening work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.config import MLConfig
from ..core.ml import Hierarchy, ml_bipartition
from ..hypergraph import Hypergraph
from ..rng import SeedLike
from .cache import HierarchyCache, default_hierarchy_cache
from .executor import execute
from .job import Algorithm, Portfolio
from .records import PortfolioResult

__all__ = ["ml_reuse_algorithm", "ml_portfolio"]


@dataclass(frozen=True)
class _MLStart:
    """``fn(hg, seed)`` of :func:`ml_reuse_algorithm`: module-level, so
    the algorithm (hierarchy included) pickles for a live worker pool."""

    config: MLConfig
    hierarchy: Optional[Hierarchy]

    def __call__(self, hg: Hypergraph, seed: int):
        return ml_bipartition(hg, config=self.config, seed=seed,
                              hierarchy=self.hierarchy)


def ml_reuse_algorithm(config: Optional[MLConfig] = None,
                       hierarchy: Optional[Hierarchy] = None,
                       name: Optional[str] = None) -> Algorithm:
    """ML starts that refine ``hierarchy`` instead of re-coarsening.

    With ``hierarchy=None`` each start coarsens for itself (identical
    to plain ``ml_bipartition``), which keeps one code path for both
    modes.  The returned algorithm pickles.
    """
    config = config or MLConfig()
    label = name or "ML{}(R={:g})".format(
        config.engine[0].upper(), config.matching_ratio)
    return Algorithm(name=label, fn=_MLStart(config, hierarchy))


def ml_portfolio(hg: Hypergraph, runs: int,
                 config: Optional[MLConfig] = None,
                 seed: SeedLike = 0,
                 jobs: int = 1,
                 cache: Optional[HierarchyCache] = None,
                 budget_seconds: Optional[float] = None,
                 retries: int = 0,
                 keep_results: bool = False,
                 executor=None) -> PortfolioResult:
    """``runs`` ML starts on ``hg``, coarsening once and refining many.

    The hierarchy comes from ``cache`` (the process-wide default when
    omitted), keyed on ``(hg, config, seed)``: repeated portfolios on
    the same cell — e.g. a table sweep re-run at several ratios — reuse
    it across calls, not just across starts.
    """
    config = config or MLConfig()
    cache = cache if cache is not None else default_hierarchy_cache
    hierarchy = cache.get(hg, config, seed)
    algorithm = ml_reuse_algorithm(config, hierarchy)
    portfolio = Portfolio(algorithm=algorithm, hg=hg, runs=runs, seed=seed,
                          budget_seconds=budget_seconds, retries=retries,
                          keep_results=keep_results)
    return execute(portfolio, jobs=jobs, executor=executor)
