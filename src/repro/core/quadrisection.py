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

from ..errors import ClusteringError, PartitionError
from ..hypergraph import Hypergraph
from ..partition import Partition, random_partition
from ..rng import SeedLike, make_rng
from ..fm.kway import check_kway_args, kway_partition
from .config import DEFAULT_QUAD_THRESHOLD, MLConfig
from .ml import _uncoarsen, build_hierarchy

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
    levels refine freely and the pre-assignment is imposed on the
    finest refinement's start (a random one when ``hg`` has at most
    ``T`` modules and is not coarsened at all).
    """
    check_kway_args(k, objective)
    config = config or default_quad_config()
    rng = rng if rng is not None else make_rng(seed)
    if hg.num_modules < k:
        raise ClusteringError(
            f"cannot {k}-way partition {hg.num_modules} modules")
    lock = None
    if fixed is not None:
        if len(fixed) != hg.num_modules:
            raise PartitionError(
                f"fixed has length {len(fixed)}, expected {hg.num_modules}")
        for v, part in enumerate(fixed):
            if not -1 <= part < k:
                raise PartitionError(
                    f"module {v} pre-assigned to part {part}, but k={k}")
        lock = [part >= 0 for part in fixed]
    fm_config = config.engine_config()

    hierarchy = build_hierarchy(hg, config, rng=rng)

    def refine(i: int, start: Optional[Partition]):
        if i == 0 and lock is not None:
            if start is None:
                start = random_partition(hg, k=k, rng=rng)
            assignment = list(start.assignment)
            for v, part in enumerate(fixed):
                if part >= 0:
                    assignment[v] = part
            start = Partition(assignment, k)
        return kway_partition(hierarchy.netlists[i], k=k, initial=start,
                              config=fm_config, objective=objective,
                              rng=rng, fixed=lock if i == 0 else None)

    result, level_cuts, _ = _uncoarsen(
        hierarchy, refine, starts=config.coarsest_starts, score=objective)
    return MLKWayResult(partition=result.partition,
                        cut=result.cut,
                        soed=result.soed,
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
