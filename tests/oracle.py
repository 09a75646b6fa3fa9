"""Definitional oracle for the partitioning bookkeeping.

Every quantity here is computed straight from its definition over the
hypergraph's public accessors (``pins(e)``, ``net_weight(e)``,
``area(v)``), one net or one module at a time, with no incremental
state and no shared code with the engines.  Tests compare the engines'
incremental structures (:class:`~repro.partition.PartitionState`, the
FM gain vectors, the batch engine's NumPy tallies) against it.
"""

from typing import Dict, List, Optional, Sequence


def side_counts(hg, assignment: Sequence[int], k: int,
                active: Optional[Sequence[int]] = None) -> List[List[int]]:
    """``counts[p][e]``: pins of net ``e`` in part ``p`` (0 for nets
    outside ``active`` when an active set is given)."""
    nets = range(hg.num_nets) if active is None else active
    counts = [[0] * hg.num_nets for _ in range(k)]
    for e in nets:
        for v in hg.pins(e):
            counts[assignment[v]][e] += 1
    return counts


def spans(hg, assignment: Sequence[int],
          active: Optional[Sequence[int]] = None) -> List[int]:
    """Number of distinct parts each net touches (0 outside ``active``)."""
    nets = range(hg.num_nets) if active is None else active
    out = [0] * hg.num_nets
    for e in nets:
        out[e] = len({assignment[v] for v in hg.pins(e)})
    return out


def cut(hg, assignment: Sequence[int],
        active: Optional[Sequence[int]] = None) -> int:
    """Total weight of nets spanning more than one part."""
    nets = range(hg.num_nets) if active is None else active
    return sum(hg.net_weight(e) for e in nets
               if len({assignment[v] for v in hg.pins(e)}) > 1)


def soed(hg, assignment: Sequence[int],
         active: Optional[Sequence[int]] = None) -> int:
    """Sum over cut nets of weight times parts spanned."""
    nets = range(hg.num_nets) if active is None else active
    total = 0
    for e in nets:
        s = len({assignment[v] for v in hg.pins(e)})
        if s > 1:
            total += hg.net_weight(e) * s
    return total


def part_areas(hg, assignment: Sequence[int], k: int) -> List[float]:
    """Summed module area per part, in ascending module order."""
    areas = [0.0] * k
    for v, p in enumerate(assignment):
        areas[p] += hg.area(v)
    return areas


def fm_gain(hg, assignment: Sequence[int], v: int,
            active: Optional[Sequence[int]] = None) -> int:
    """Cut decrease from moving ``v`` to the other side of a
    bipartition: evaluate the cut before and after the move over
    ``v``'s own nets (the only nets the move can change)."""
    allowed = None if active is None else set(active)
    moved = list(assignment)
    moved[v] = 1 - moved[v]
    gain = 0
    for e in set(hg.nets(v)):
        if allowed is not None and e not in allowed:
            continue
        before = len({assignment[u] for u in hg.pins(e)}) > 1
        after = len({moved[u] for u in hg.pins(e)}) > 1
        gain += hg.net_weight(e) * (int(before) - int(after))
    return gain


def fm_gains(hg, assignment: Sequence[int],
             active: Optional[Sequence[int]] = None) -> List[int]:
    """:func:`fm_gain` for every module."""
    return [fm_gain(hg, assignment, v, active)
            for v in range(hg.num_modules)]


def state_view(hg, assignment: Sequence[int], k: int,
               active: Optional[Sequence[int]] = None) -> Dict[str, object]:
    """Everything :class:`~repro.partition.PartitionState` caches."""
    return {
        "counts": side_counts(hg, assignment, k, active),
        "spans": spans(hg, assignment, active),
        "cut": cut(hg, assignment, active),
        "soed": soed(hg, assignment, active),
        "part_area": part_areas(hg, assignment, k),
    }
