"""Partitioning objectives, computed from scratch.

These are the reference (non-incremental) implementations used to
measure final solution quality — including nets that the FM engines
temporarily ignored (the paper reinstates nets larger than 200 modules
"when measuring solution quality", Section III-B) — and to verify the
incremental bookkeeping of :class:`~repro.partition.PartitionState`.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from .solution import Partition

__all__ = ["cut", "soed", "spans"]


def _check(hg: Hypergraph, partition: Partition) -> None:
    if partition.num_modules != hg.num_modules:
        raise PartitionError(
            f"partition covers {partition.num_modules} modules but "
            f"hypergraph has {hg.num_modules}")


def spans(hg: Hypergraph, partition: Partition, net: int) -> int:
    """Number of distinct parts containing pins of ``net``."""
    assignment = partition.assignment
    return len({assignment[v] for v in hg.pins(net)})


def cut(hg: Hypergraph, partition: Partition) -> int:
    """Weighted net cut: total weight of nets spanning more than one part.

    For unweighted netlists this is exactly the paper's ``cut(P)`` — the
    *number* of nets with modules on both sides.
    """
    _check(hg, partition)
    assignment = partition.assignment
    # Final-quality measurement runs once per engine call but over
    # *all* nets (large ones re-included), so it shows up in multilevel
    # profiles; one sweep over the kernel lists.
    net_weights = hg.weights_list
    total = 0
    for e, pins in enumerate(hg.net_pins):
        first = assignment[pins[0]]
        for v in pins:
            if assignment[v] != first:
                total += net_weights[e]
                break
    return total


def soed(hg: Hypergraph, partition: Partition) -> int:
    """Sum of cluster degrees ("sum of degrees" gain of Section III-C).

    Each cut net contributes ``weight * (number of parts it spans)``;
    uncut nets contribute nothing.  For bipartitioning this is exactly
    ``2 * cut``; for quadrisection it additionally penalises nets spread
    over three or four clusters, which is the gain function the paper
    reports quadrisection results for.
    """
    _check(hg, partition)
    total = 0
    for e in hg.all_nets():
        s = spans(hg, partition, e)
        if s > 1:
            total += hg.net_weight(e) * s
    return total
