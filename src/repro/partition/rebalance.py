"""Rebalancing of infeasible partitions.

Section III-B: a solution that satisfied the coarse level's balance
constraints may violate the finer level's constraints after projection
(because ``A(v*)`` shrinks during uncoarsening).  "In this case, the
solution is rebalanced by randomly moving modules from the larger
cluster to the smaller one."
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..errors import BalanceError
from ..hypergraph import Hypergraph
from ..rng import SeedLike, make_rng, random_permutation
from .balance import BalanceConstraint
from .solution import Partition

__all__ = ["rebalance_random"]


def rebalance_random(hg: Hypergraph, partition: Partition,
                     constraint: BalanceConstraint,
                     seed: SeedLike = None,
                     rng: Optional[random.Random] = None,
                     movable: Optional[List[bool]] = None) -> Partition:
    """Return a feasible copy of ``partition`` via random moves.

    Modules are moved one at a time from the currently heaviest
    violating part to the currently lightest part, in random order,
    until every part is within bounds.  ``movable`` (all-true by
    default) restricts which modules may be touched — pre-assigned
    I/O pads must stay put.  The input is not modified.
    Raises :class:`BalanceError` if no sequence of single-module moves
    can reach feasibility (e.g. one module bigger than ``upper``).
    """
    rng = rng if rng is not None else make_rng(seed)
    assignment = list(partition.assignment)
    k = partition.k
    areas = [0.0] * k
    for v, p in enumerate(assignment):
        areas[p] += hg.area(v)
    if constraint.is_feasible(areas):
        return Partition(assignment, k)

    by_part = [[] for _ in range(k)]
    for v, p in enumerate(assignment):
        if movable is None or movable[v]:
            by_part[p].append(v)
    for members in by_part:
        members[:] = [members[i]
                      for i in random_permutation(len(members), rng)]

    # Each iteration moves one module out of the worst offender; bounded
    # by the number of modules times parts, with a hard guard against
    # pathological non-convergence.
    max_steps = 2 * hg.num_modules * k + 16
    for _ in range(max_steps):
        if constraint.is_feasible(areas):
            return Partition(assignment, k)
        src = max(range(k), key=lambda p: areas[p])
        dst = min(range(k), key=lambda p: areas[p])
        if src == dst or not by_part[src]:
            break
        v = by_part[src].pop()
        assignment[v] = dst
        by_part[dst].append(v)
        # Keep the receiver's pool shuffled-fair: inserting at the end
        # is fine because pops come from the end of a shuffled list and
        # recently moved modules are the right ones to move back first.
        areas[src] -= hg.area(v)
        areas[dst] += hg.area(v)
    if constraint.is_feasible(areas):
        return Partition(assignment, k)
    raise BalanceError(
        "rebalance_random could not reach a feasible solution; bounds "
        f"[{constraint.lower}, {constraint.upper}] may be unsatisfiable "
        "for these module areas")
