"""Multilevel quadrisection (Section III-C / IV-D).

The paper extends ML to 4-way partitioning using the Sanchis multi-way
FM engine without lookahead; quadrisection results are reported for the
sum-of-cluster-degrees gain, with ``R = 1.0`` and ``T = 100``.  Modules
(e.g. I/O pads) may be pre-assigned to clusters, which the top-down
placement tool built on this algorithm relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..clustering.project import project
from ..errors import ClusteringError, PartitionError
from ..hypergraph import Hypergraph
from ..partition import Partition, cut, soed
from ..rng import SeedLike, make_rng
from ..fm.kway import kway_partition
from .config import DEFAULT_QUAD_THRESHOLD, MLConfig
from .ml import build_hierarchy

__all__ = ["MLKWayResult", "ml_kway", "ml_quadrisection",
           "default_quad_config"]


@dataclass
class MLKWayResult:
    """Outcome of one multilevel k-way run."""

    partition: Partition
    cut: int
    soed: int
    k: int
    levels: int
    level_sizes: List[int]
    level_cuts: List[int] = field(default_factory=list)


def default_quad_config() -> MLConfig:
    """The paper's Table IX settings: ``R = 1.0``, ``T = 100``, FM engine."""
    return MLConfig(coarsening_threshold=DEFAULT_QUAD_THRESHOLD,
                    matching_ratio=1.0, engine="fm")


def ml_kway(hg: Hypergraph,
            k: int = 4,
            config: Optional[MLConfig] = None,
            objective: str = "soed",
            fixed: Optional[List[int]] = None,
            seed: SeedLike = None,
            rng: Optional[random.Random] = None) -> MLKWayResult:
    """Multilevel k-way partitioning (Figure 2 with a k-way engine).

    ``fixed`` optionally maps module -> pre-assigned part (or ``-1`` for
    free modules); fixed modules are kept out of the matching by being
    pinned through the hierarchy only at the finest level — coarser
    levels refine freely and the pre-assignment is re-imposed before
    the final refinement.
    """
    config = config or default_quad_config()
    rng = rng if rng is not None else make_rng(seed)
    if hg.num_modules < k:
        raise ClusteringError(
            f"cannot {k}-way partition {hg.num_modules} modules")
    if fixed is not None and len(fixed) != hg.num_modules:
        raise PartitionError(
            f"fixed has length {len(fixed)}, expected {hg.num_modules}")
    fm_config = config.engine_config()

    hierarchy = build_hierarchy(hg, config, rng=rng)

    def score(r):
        return r.soed if objective == "soed" else r.cut

    result = kway_partition(hierarchy.coarsest, k=k, initial=None,
                            config=fm_config, objective=objective, rng=rng)
    for _ in range(config.coarsest_starts - 1):
        attempt = kway_partition(hierarchy.coarsest, k=k, initial=None,
                                 config=fm_config, objective=objective,
                                 rng=rng)
        if score(attempt) < score(result):
            result = attempt
    level_cuts = [result.cut]

    solution = result.partition
    for i in range(hierarchy.levels - 1, -1, -1):
        projected = project(solution, hierarchy.clusterings[i])
        finest = i == 0
        lock = None
        if finest and fixed is not None:
            assignment = list(projected.assignment)
            lock = [False] * hg.num_modules
            for v, part in enumerate(fixed):
                if part >= 0:
                    if part >= k:
                        raise PartitionError(
                            f"module {v} pre-assigned to part {part}, "
                            f"but k={k}")
                    assignment[v] = part
                    lock[v] = True
            projected = Partition(assignment, k)
        result = kway_partition(hierarchy.netlists[i], k=k,
                                initial=projected, config=fm_config,
                                objective=objective, rng=rng,
                                fixed=lock)
        solution = result.partition
        level_cuts.append(result.cut)

    return MLKWayResult(partition=solution,
                        cut=cut(hg, solution),
                        soed=soed(hg, solution),
                        k=k,
                        levels=hierarchy.levels,
                        level_sizes=hierarchy.module_counts(),
                        level_cuts=level_cuts)


def ml_quadrisection(hg: Hypergraph,
                     config: Optional[MLConfig] = None,
                     objective: str = "soed",
                     fixed: Optional[List[int]] = None,
                     seed: SeedLike = None,
                     rng: Optional[random.Random] = None) -> MLKWayResult:
    """4-way multilevel partitioning with the paper's defaults."""
    return ml_kway(hg, k=4, config=config, objective=objective,
                   fixed=fixed, seed=seed, rng=rng)
