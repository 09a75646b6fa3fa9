"""The ML multilevel partitioning algorithm (Figure 2).

``ML`` coarsens the netlist with ``Match``/``Induce`` while it has more
than ``T`` modules, partitions the coarsest netlist with
``FMPartition`` from a random start, then uncoarsens with
``Project`` + ``FMPartition`` refinement at every level.  The matching
ratio ``R`` controls coarsening speed and therefore the number of
levels — the paper's key mechanism for giving the refinement engine
more opportunities (Section III).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..clustering import Clustering, induce, match
from ..errors import ClusteringError
from ..hypergraph import Hypergraph
from ..obs import metrics, recorder, tracer
from ..partition import Partition, cut
from ..rng import SeedLike, make_rng, spawn
from ..fm.engine import fm_bipartition
from ..clustering.project import project
from .config import MLConfig

__all__ = ["MLResult", "ml_bipartition", "build_hierarchy", "Hierarchy",
           "coarsen_step"]


@dataclass
class Hierarchy:
    """The coarsening hierarchy ``H_0 .. H_m`` with its clusterings.

    ``netlists[i+1]`` is induced from ``netlists[i]`` by
    ``clusterings[i]``; ``len(netlists) == len(clusterings) + 1``.
    """

    netlists: List[Hypergraph]
    clusterings: List[Clustering]

    @property
    def levels(self) -> int:
        """``m``: the number of coarsening steps taken."""
        return len(self.clusterings)

    @property
    def coarsest(self) -> Hypergraph:
        return self.netlists[-1]

    def module_counts(self) -> List[int]:
        """``|V_i|`` per level, finest first."""
        return [h.num_modules for h in self.netlists]


@dataclass
class MLResult:
    """Outcome of one ML run."""

    partition: Partition
    cut: int
    levels: int
    level_sizes: List[int]
    level_cuts: List[int] = field(default_factory=list)
    total_passes: int = 0


def coarsen_step(current: Hypergraph, config: MLConfig,
                 rng: random.Random,
                 restrict: Optional[List[int]] = None
                 ) -> Tuple[Clustering, Optional[Hypergraph]]:
    """One Match + Induce step under ``config``.

    Returns the clustering and the induced netlist, or ``None`` in
    place of the netlist when the matching made no progress (every
    module stayed a singleton).
    """
    clustering = match(current, ratio=config.matching_ratio,
                       scheme=config.matching_scheme, rng=rng,
                       restrict=restrict)
    if clustering.num_clusters >= current.num_modules:
        return clustering, None
    return clustering, induce(current, clustering)


def _observe_phase(phase: str, began: float) -> None:
    metrics().histogram("repro_ml_phase_seconds",
                        "Wall time of the multilevel phases, by phase.",
                        phase=phase).observe(time.perf_counter() - began)


def _coarsen(hg: Hypergraph, config: MLConfig, rng: random.Random,
             labels: Optional[List[int]] = None
             ) -> Tuple[Hierarchy, Optional[List[int]]]:
    """Steps 1-5 of Figure 2, drawing from ``rng`` itself.

    ``labels`` restricts the matching to modules with equal labels (the
    V-cycle's side labels); every cluster is then pure, so the labels
    are carried up one level at a time and returned for the coarsest
    netlist beside the hierarchy.
    """
    tr = tracer()
    mx = metrics()
    rec = recorder()
    t_all = tr.begin() if tr.enabled else 0
    m_phase = time.perf_counter() if mx.enabled else 0.0
    netlists = [hg]
    clusterings: List[Clustering] = []
    while (netlists[-1].num_modules > config.coarsening_threshold
           and len(clusterings) < config.max_levels):
        current = netlists[-1]
        t_level = tr.now() if tr.enabled else 0
        clustering, coarse = coarsen_step(current, config, rng,
                                          restrict=labels)
        if coarse is None:
            break  # no progress: all modules became singletons
        netlists.append(coarse)
        clusterings.append(clustering)
        if labels is not None:
            coarse_labels = [0] * clustering.num_clusters
            for v, c in enumerate(clustering.cluster_of):
                coarse_labels[c] = labels[v]
            labels = coarse_labels
        if rec.enabled:
            # Confirms the preceding run of merge events as a kept
            # level (merges of a no-progress matching get no
            # confirmation and are discarded by readers).
            rec.emit({"t": "level", "l": len(clusterings) - 1,
                      "n": current.num_modules,
                      "c": coarse.num_modules,
                      "cn": coarse.num_nets})
        if tr.enabled:
            tr.complete("coarsen.level", t_level, {
                "level": len(clusterings),
                "modules": current.num_modules,
                "coarse_modules": coarse.num_modules,
                "nets": coarse.num_nets,
                "pins": coarse.num_pins,
                "achieved_ratio": round(clustering.matched_fraction(), 4),
            })
    if tr.enabled:
        tr.end("ml.coarsen", t_all, {
            "levels": len(clusterings),
            "modules": hg.num_modules,
            "coarsest_modules": netlists[-1].num_modules,
            "target_ratio": config.matching_ratio,
        })
    if mx.enabled:
        _observe_phase("coarsen", m_phase)
    return Hierarchy(netlists=netlists, clusterings=clusterings), labels


def build_hierarchy(hg: Hypergraph, config: Optional[MLConfig] = None,
                    seed: SeedLike = None,
                    rng: Optional[random.Random] = None) -> Hierarchy:
    """The coarsening phase (Steps 1-5 of Figure 2).

    Coarsening stops at ``T`` modules, at ``max_levels``, or when a
    matching step fails to shrink the netlist (which can happen when
    every remaining module is isolated from the others — continuing
    would loop forever).

    Exactly one value is drawn from the caller's ``rng``/``seed`` stream
    to seed a private coarsening stream.  This makes the hierarchy a
    substitutable artifact: ``ml_bipartition(hg, seed=s)`` and
    ``ml_bipartition(hg, hierarchy=build_hierarchy(hg, config, seed=s),
    seed=s)`` consume identical refinement streams and therefore return
    identical results (the contract the parallel runtime's hierarchy
    cache relies on).
    """
    base = rng if rng is not None else make_rng(seed)
    return _coarsen(hg, config or MLConfig(), spawn(base))[0]


def _uncoarsen(hierarchy: Hierarchy, refine: Callable, starts: int = 1,
               initial: Optional[Partition] = None,
               score: str = "cut") -> Tuple[Any, List[int], int]:
    """Steps 6-9 of Figure 2.

    ``refine(i, start)`` runs the engine on ``hierarchy.netlists[i]``
    from ``start`` and returns its result, which carries ``partition``,
    ``cut`` and ``passes``.  The coarsest level keeps the best (lowest
    ``score`` attribute) of ``starts`` calls from ``initial``; every
    finer level refines its coarser solution's projection.  Returns the
    finest result, the cut per level (coarsest first) and the total
    pass count.
    """
    tr = tracer()
    mx = metrics()
    rec = recorder()
    t_phase = tr.begin() if tr.enabled else 0
    m_phase = time.perf_counter() if mx.enabled else 0.0
    if rec.enabled:
        rec.level = hierarchy.levels
    result = refine(hierarchy.levels, initial)
    total_passes = result.passes
    for _ in range(starts - 1):
        attempt = refine(hierarchy.levels, initial)
        total_passes += attempt.passes
        if getattr(attempt, score) < getattr(result, score):
            result = attempt
    level_cuts = [result.cut]
    if tr.enabled:
        tr.end("ml.initial", t_phase, {
            "modules": hierarchy.coarsest.num_modules,
            "starts": starts, "cut": result.cut,
        })
    if mx.enabled:
        _observe_phase("initial", m_phase)
        m_phase = time.perf_counter()

    for i in range(hierarchy.levels - 1, -1, -1):
        t_phase = tr.begin() if tr.enabled else 0
        projected = project(result.partition, hierarchy.clusterings[i])
        if rec.enabled:
            rec.level = i
        result = refine(i, projected)
        level_cuts.append(result.cut)
        total_passes += result.passes
        if tr.enabled:
            tr.end("ml.refine.level", t_phase, {
                "level": i,
                "modules": hierarchy.netlists[i].num_modules,
                "cut": result.cut, "passes": result.passes,
            })
    if mx.enabled:
        _observe_phase("refine", m_phase)
    if rec.enabled:
        rec.level = -1
    return result, level_cuts, total_passes


def ml_bipartition(hg: Hypergraph,
                   config: Optional[MLConfig] = None,
                   seed: SeedLike = None,
                   rng: Optional[random.Random] = None,
                   hierarchy: Optional[Hierarchy] = None) -> MLResult:
    """Run the ML multilevel bipartitioning algorithm of Figure 2.

    Returns the refined bipartitioning ``P_0`` of the input netlist; its
    ``cut`` is measured over all nets of ``hg`` (including any the
    refinement engine ignored for size).

    ``hierarchy`` substitutes a prebuilt coarsening hierarchy for the
    coarsening phase (Steps 1-5), so a multi-start portfolio can coarsen
    once and refine many times.  The hierarchy is treated as read-only
    and must have been built over ``hg`` (same finest netlist).  Because
    :func:`build_hierarchy` draws exactly one value from the run's seed
    stream, passing ``hierarchy=build_hierarchy(hg, config, seed=s)``
    together with ``seed=s`` reproduces the fresh-run result exactly.
    """
    config = config or MLConfig()
    rng = rng if rng is not None else make_rng(seed)
    if hg.num_modules < 2:
        raise ClusteringError("cannot bipartition fewer than two modules")
    fm_config = config.engine_config()
    tr = tracer()
    t_run = tr.begin() if tr.enabled else 0

    if hierarchy is None:
        hierarchy = build_hierarchy(hg, config, rng=rng)
    else:
        if not hierarchy.netlists or hierarchy.netlists[0] is not hg and (
                hierarchy.netlists[0].num_modules != hg.num_modules
                or hierarchy.netlists[0].num_nets != hg.num_nets):
            raise ClusteringError(
                "prebuilt hierarchy was not built over this netlist")
        spawn(rng)  # discard the coarsening draw to keep streams aligned

    def refine(i: int, start: Optional[Partition]):
        return fm_bipartition(hierarchy.netlists[i], initial=start,
                              config=fm_config, rng=rng)

    # Step 6 optionally takes several independent starts on the
    # coarsest netlist, keeping the best (Section V).
    result, level_cuts, total_passes = _uncoarsen(
        hierarchy, refine, starts=config.coarsest_starts)
    solution = result.partition
    final_cut = cut(hg, solution)
    if tr.enabled:
        tr.end("ml.bipartition", t_run, {
            "modules": hg.num_modules, "nets": hg.num_nets,
            "engine": config.engine, "ratio": config.matching_ratio,
            "levels": hierarchy.levels, "cut": final_cut,
            "passes": total_passes,
        })
    return MLResult(partition=solution,
                    cut=final_cut,
                    levels=hierarchy.levels,
                    level_sizes=hierarchy.module_counts(),
                    level_cuts=level_cuts,
                    total_passes=total_passes)
