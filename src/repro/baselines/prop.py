"""PROP-style probabilistic gain partitioning (Dutt–Deng [13]).

PROP replaces FM's immediate cut-delta gain with a probabilistic one:
every vertex carries a probability of eventually moving to the other
side (initially 0.95), and a vertex's gain is the *expected* cut
reduction given its neighbours' move probabilities.  Because the gains
are non-discrete, the FM bucket structure cannot be used and runtimes
grow by the 4-8x the paper reports (Section II-A); we use a lazy
max-heap instead.

Model (documented substitution — see DESIGN.md): a free vertex ``u``
currently in part ``P`` is in ``P`` with probability ``1 - p_u`` and in
the other part with probability ``p_u``; moved (locked) vertices are
certain.  For vertex ``v`` on net ``e``, the gain contribution is

    P(e uncut if v moves)  -  P(e uncut if v stays)
      = prod_{u in same(v)} p_u * prod_{u in other(v)} (1 - p_u)
      - prod_{u in same(v)} (1 - p_u) * prod_{u in other(v)} p_u

over the other pins ``u`` of ``e``, weighted by the net weight.  The
pass structure (move-once, best-prefix rollback, repeat until no
improvement) is FM's.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..partition import (BalanceConstraint, Partition, PartitionState, cut,
                         random_partition)
from ..partition.rebalance import rebalance_random
from ..rng import SeedLike, make_rng
from ..fm.config import FMConfig
from ..fm.engine import FMResult

__all__ = ["prop_bipartition", "INITIAL_MOVE_PROBABILITY"]

#: Dutt-Deng's initial probability that a vertex will move.
INITIAL_MOVE_PROBABILITY = 0.95


def _vertex_gain(state: PartitionState, probability: List[float],
                 v: int) -> float:
    hg = state.hg
    side = state.part_of[v]
    gain = 0.0
    for e in hg.nets(v):
        if not state.active[e]:
            continue
        to_other = 1.0
        to_same = 1.0
        for u in hg.pins(e):
            if u == v:
                continue
            p = probability[u]
            if state.part_of[u] == side:
                to_other *= p
                to_same *= 1.0 - p
            else:
                to_other *= 1.0 - p
                to_same *= p
        gain += hg.net_weight(e) * (to_other - to_same)
    return gain


def prop_bipartition(hg: Hypergraph,
                     initial: Optional[Partition] = None,
                     config: Optional[FMConfig] = None,
                     balance: Optional[BalanceConstraint] = None,
                     initial_probability: float = INITIAL_MOVE_PROBABILITY,
                     seed: SeedLike = None,
                     rng: Optional[random.Random] = None) -> FMResult:
    """Bipartition ``hg`` with the PROP probabilistic gain engine."""
    if not 0 < initial_probability < 1:
        raise PartitionError(
            f"initial_probability must be in (0, 1), got "
            f"{initial_probability}")
    config = config or FMConfig()
    rng = rng if rng is not None else make_rng(seed)
    if balance is None:
        balance = BalanceConstraint.from_tolerance(hg, config.tolerance, k=2)
    if initial is None:
        initial = random_partition(hg, k=2, rng=rng)
    if not balance.is_feasible(initial.part_areas(hg)):
        initial = rebalance_random(hg, initial, balance, rng=rng)

    state = PartitionState(hg, initial,
                           active_nets=hg.active_nets(config.max_net_size))
    initial_cut = cut(hg, initial)
    best_overall = state.cut_weight
    passes = 0
    total_moves = 0
    pass_cuts: List[int] = []
    max_passes = config.max_passes or 1000
    areas = hg.areas()
    lower, upper = balance.lower, balance.upper

    while passes < max_passes:
        passes += 1
        probability = [initial_probability] * hg.num_modules
        gains = [_vertex_gain(state, probability, v) for v in hg.modules()]
        # Lazy max-heap of (-gain, tiebreak, vertex, stamp).
        stamp = [0] * hg.num_modules
        heap = [(-gains[v], v, 0) for v in hg.modules()]
        heapq.heapify(heap)
        locked = [False] * hg.num_modules
        moves: List[int] = []
        best_cut = state.cut_weight
        best_index = 0

        deferred: List[tuple] = []
        while heap:
            entry = heapq.heappop(heap)
            neg_gain, v, s = entry
            if locked[v] or s != stamp[v]:
                continue
            src = state.part_of[v]
            a = areas[v]
            if not (state.part_area[src] - a >= lower
                    and state.part_area[1 - src] + a <= upper):
                # Balance-infeasible right now: park the entry; it is
                # re-queued after the next successful move (which is the
                # only event that can restore its feasibility).
                deferred.append(entry)
                continue

            locked[v] = True
            probability[v] = 0.0  # the move is now certain history
            state.move(v, 1 - src)
            moves.append(v)
            total_moves += 1

            # Refresh the gains of free neighbours.
            seen = set()
            for e in hg.nets(v):
                if not state.active[e]:
                    continue
                for u in hg.pins(e):
                    if u != v and not locked[u] and u not in seen:
                        seen.add(u)
                        gains[u] = _vertex_gain(state, probability, u)
                        stamp[u] += 1
                        heapq.heappush(heap, (-gains[u], u, stamp[u]))

            for parked in deferred:
                heapq.heappush(heap, parked)
            deferred.clear()

            if state.cut_weight < best_cut:
                best_cut = state.cut_weight
                best_index = len(moves)

        for v in reversed(moves[best_index:]):
            state.move(v, 1 - state.part_of[v])
        pass_cuts.append(state.cut_weight)
        if state.cut_weight >= best_overall:
            break
        best_overall = state.cut_weight

    final = state.to_partition()
    return FMResult(partition=final, cut=cut(hg, final),
                    internal_cut=state.cut_weight,
                    initial_cut=initial_cut, passes=passes,
                    total_moves=total_moves, pass_cuts=pass_cuts)
