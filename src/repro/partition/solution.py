"""Partitioning solutions.

A *k-way partitioning* assigns every module to one of ``k`` parts
(clusters).  The paper's bipartitioning ``P = {X, Y}`` is the ``k = 2``
case; quadrisection (Section IV-D) is ``k = 4``.  :class:`Partition` is
a lightweight value object: the hypergraph is passed to the methods that
need it rather than stored, so a solution can outlive intermediate
(coarsened) netlists.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..rng import SeedLike, make_rng

__all__ = ["Partition", "random_partition"]


class Partition:
    """Assignment of modules to parts ``0..k-1``."""

    __slots__ = ("assignment", "k")

    def __init__(self, assignment: Sequence[int], k: int = 2):
        if k < 2:
            raise PartitionError(f"k must be >= 2, got {k}")
        assignment = list(assignment)
        for v, p in enumerate(assignment):
            if not 0 <= p < k:
                raise PartitionError(
                    f"module {v} assigned to part {p}, valid range is "
                    f"[0, {k})")
        self.assignment = assignment
        self.k = k

    @classmethod
    def _trusted(cls, assignment: List[int], k: int) -> "Partition":
        """Wrap an assignment list already known to lie in ``[0, k)``
        (a projection or a refinement state's), skipping the checks."""
        self = cls.__new__(cls)
        self.assignment = assignment
        self.k = k
        return self

    # ------------------------------------------------------------------

    @property
    def num_modules(self) -> int:
        return len(self.assignment)

    def part_of(self, module: int) -> int:
        """Part holding ``module``."""
        return self.assignment[module]

    def parts(self) -> List[List[int]]:
        """Modules grouped by part, i.e. the clusters ``X, Y, ...``."""
        groups: List[List[int]] = [[] for _ in range(self.k)]
        for v, p in enumerate(self.assignment):
            groups[p].append(v)
        return groups

    def part_sizes(self) -> List[int]:
        """Module count per part."""
        sizes = [0] * self.k
        for p in self.assignment:
            sizes[p] += 1
        return sizes

    def part_areas(self, hg: Hypergraph) -> List[float]:
        """Total area per part."""
        if hg.num_modules != len(self.assignment):
            raise PartitionError(
                f"partition covers {len(self.assignment)} modules but "
                f"hypergraph has {hg.num_modules}")
        areas = [0.0] * self.k
        module_areas = hg.areas_list
        for v, p in enumerate(self.assignment):
            areas[p] += module_areas[v]
        return areas

    def copy(self) -> "Partition":
        return Partition(list(self.assignment), self.k)

    def relabeled(self) -> "Partition":
        """Canonical relabeling: parts renumbered by first occurrence.

        Two partitions that differ only by part naming compare equal
        after relabeling — used when checking solution uniqueness.
        """
        mapping: dict = {}
        out = []
        for p in self.assignment:
            if p not in mapping:
                mapping[p] = len(mapping)
            out.append(mapping[p])
        return Partition(out, self.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.k == other.k and self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash((self.k, tuple(self.assignment)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Partition(k={self.k}, modules={len(self.assignment)}, "
                f"sizes={self.part_sizes()})")


def random_partition(hg: Hypergraph, k: int = 2,
                     seed: SeedLike = None,
                     rng: Optional[random.Random] = None) -> Partition:
    """Random area-balanced initial solution.

    Modules are visited in random order and each is placed in the
    currently lightest part, which yields near-perfect area balance even
    with heterogeneous areas (a classic greedy ``LPT``-style fill).
    FM's initial solutions in the paper are random; this matches that
    while guaranteeing the balance preconditions FM needs to start.
    """
    rng = rng if rng is not None else make_rng(seed)
    order = list(hg.modules())
    rng.shuffle(order)
    assignment = [0] * hg.num_modules
    areas = [0.0] * k
    for v in order:
        p = min(range(k), key=lambda q: (areas[q], q))
        assignment[v] = p
        areas[p] += hg.area(v)
    return Partition(assignment, k)
