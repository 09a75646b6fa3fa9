"""Multi-way FM refinement (Sanchis [39], without lookahead).

The paper extends ML to quadrisection with "the quadrisection algorithm
of Sanchis but without lookahead", supporting net-cut and
sum-of-cluster-degrees gain computations (Section III-C); quadrisection
results are reported for the sum-of-degrees gain.

Each free module contributes ``k - 1`` candidate moves (one per foreign
part).  Moves live in a single gain-bucket structure keyed by
``module * k + destination``; the engine repeatedly applies the highest
gain balance-feasible move, locks the module, and finally rolls back to
the best prefix of the pass — exactly the FM pass structure generalised
to ``k`` parts.  Gains of the moved module's neighbours are recomputed
directly from the net counts (O(degree · k) per neighbour), trading the
intricate k-way delta rules for obviously-correct bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigError, PartitionError
from ..hypergraph import Hypergraph
from ..partition import (BalanceConstraint, Partition, PartitionState, cut,
                         random_partition, soed)
from ..partition.rebalance import rebalance_random
from ..rng import SeedLike, make_rng
from .buckets import check_gain_bound, make_buckets
from .config import FMConfig

__all__ = ["KWayResult", "kway_partition", "KWAY_OBJECTIVES"]

KWAY_OBJECTIVES = ("cut", "soed")


@dataclass
class KWayResult:
    """Outcome of one k-way FM run (both objectives reported)."""

    partition: Partition
    cut: int
    soed: int
    objective: str
    initial_cut: int
    passes: int
    total_moves: int
    pass_values: List[int] = field(default_factory=list)


def _move_gain(state: PartitionState, module: int, dst: int,
               objective: str) -> int:
    """Gain (objective decrease) of moving ``module`` to ``dst``."""
    hg = state.hg
    src = state.part_of[module]
    counts = state.counts
    active = state.active
    spans = state.spans
    gain = 0
    for e in hg.nets(module):
        if not active[e]:
            continue
        w = hg.net_weight(e)
        s = spans[e]
        s_after = s - (1 if counts[src][e] == 1 else 0) \
            + (1 if counts[dst][e] == 0 else 0)
        if objective == "cut":
            gain += w * ((1 if s > 1 else 0) - (1 if s_after > 1 else 0))
        else:  # soed
            before = w * s if s > 1 else 0
            after = w * s_after if s_after > 1 else 0
            gain += before - after
    return gain


def _gain_bound(hg: Hypergraph, max_net_size: int, objective: str) -> int:
    best = hg.max_weighted_degree(max_net_size)
    return 2 * best if objective == "soed" else best


def kway_partition(hg: Hypergraph,
                   k: int = 4,
                   initial: Optional[Partition] = None,
                   config: Optional[FMConfig] = None,
                   objective: str = "soed",
                   balance: Optional[BalanceConstraint] = None,
                   seed: SeedLike = None,
                   rng: Optional[random.Random] = None,
                   fixed: Optional[List[bool]] = None) -> KWayResult:
    """Refine (or create) a ``k``-way partitioning of ``hg``.

    ``fixed`` optionally marks modules that may never move — the paper's
    placement use-case pre-assigns I/O pads to clusters (Section III-C).
    """
    if k < 2:
        raise PartitionError(f"k must be >= 2, got {k}")
    if objective not in KWAY_OBJECTIVES:
        raise ConfigError(
            f"objective must be one of {KWAY_OBJECTIVES}, got {objective!r}")
    config = config or FMConfig()
    rng = rng if rng is not None else make_rng(seed)
    if balance is None:
        balance = BalanceConstraint.from_tolerance(hg, config.tolerance, k=k)

    if initial is None:
        initial = random_partition(hg, k=k, rng=rng)
    elif initial.k != k:
        raise PartitionError(
            f"initial partition has k={initial.k}, expected {k}")

    fixed = fixed if fixed is not None else [False] * hg.num_modules
    if len(fixed) != hg.num_modules:
        raise PartitionError(
            f"fixed has length {len(fixed)}, expected {hg.num_modules}")
    if not balance.is_feasible(initial.part_areas(hg)):
        initial = rebalance_random(hg, initial, balance, rng=rng,
                                   movable=[not f for f in fixed])

    active_list = hg.active_nets(config.max_net_size)
    state = PartitionState(hg, initial, active_nets=active_list)
    max_gain = _gain_bound(hg, config.max_net_size, objective)
    bucket_range = 2 * max_gain if config.clip else max_gain
    check_gain_bound(bucket_range)

    def objective_value() -> int:
        return state.soed_weight if objective == "soed" else state.cut_weight

    initial_cut = cut(hg, initial)
    best_overall = objective_value()
    passes = 0
    total_moves = 0
    pass_values: List[int] = []
    max_passes = config.max_passes or 1000

    areas = hg.areas_list
    part_of = state.part_of
    lower, upper = balance.lower, balance.upper
    num_items = hg.num_modules * k

    while passes < max_passes:
        passes += 1
        gains = [0] * num_items
        movable = [v for v in hg.modules() if not fixed[v]]
        for v in movable:
            src = part_of[v]
            for dst in range(k):
                if dst != src:
                    gains[v * k + dst] = _move_gain(state, v, dst, objective)

        buckets = make_buckets(num_items, bucket_range,
                               config.bucket_policy, rng)
        items = [v * k + dst for v in movable
                 for dst in range(k) if dst != part_of[v]]
        if config.clip:
            items.sort(key=lambda it: gains[it])
            if config.bucket_policy == "fifo":
                items.reverse()
            for it in items:
                buckets.insert(it, 0)
            offsets = dict.fromkeys(items, 0)
        else:
            for it in items:
                buckets.insert(it, gains[it])
            offsets = None

        locked = [bool(f) for f in fixed]
        moves: List[Tuple[int, int]] = []
        best_value = objective_value()
        best_index = 0
        stall = 0

        while len(buckets):
            chosen = -1
            for it in buckets.iter_desc():
                v, dst = divmod(it, k)
                src = part_of[v]
                a = areas[v]
                if (state.part_area[src] - a >= lower
                        and state.part_area[dst] + a <= upper):
                    chosen = it
                    break
            if chosen < 0:
                break
            v, dst = divmod(chosen, k)
            src = part_of[v]
            # Lock the module: drop all of its candidate moves.
            for q in range(k):
                if q != src and buckets.contains(v * k + q):
                    buckets.remove(v * k + q)
            locked[v] = True

            # Collect neighbours before mutating counts.
            neighbours = set()
            for e in hg.nets(v):
                if state.active[e]:
                    for u in hg.pins(e):
                        if not locked[u]:
                            neighbours.add(u)

            state.move(v, dst)
            moves.append((v, src))
            total_moves += 1

            # Recompute the affected neighbours' gains from counts.
            for u in neighbours:
                usrc = part_of[u]
                for q in range(k):
                    if q == usrc:
                        continue
                    it = u * k + q
                    new_gain = _move_gain(state, u, q, objective)
                    if offsets is None:
                        if gains[it] != new_gain:
                            gains[it] = new_gain
                            buckets.update(it, new_gain)
                    else:
                        # CLIP: bucket position tracks the change since
                        # the pass started.
                        delta = new_gain - gains[it]
                        if delta:
                            gains[it] = new_gain
                            offsets[it] += delta
                            buckets.update(it, offsets[it])

            value = objective_value()
            if value < best_value:
                best_value = value
                best_index = len(moves)
                stall = 0
            else:
                stall += 1
                if (config.early_exit_stall is not None
                        and stall >= config.early_exit_stall):
                    break

        for v, original in reversed(moves[best_index:]):
            state.move(v, original)
        pass_values.append(objective_value())

        if objective_value() >= best_overall:
            break
        best_overall = objective_value()

    final = state.to_partition()
    return KWayResult(partition=final,
                      cut=cut(hg, final),
                      soed=soed(hg, final),
                      objective=objective,
                      initial_cut=initial_cut,
                      passes=passes,
                      total_moves=total_moves,
                      pass_values=pass_values)
