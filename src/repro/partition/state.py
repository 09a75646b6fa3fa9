"""Incrementally maintained partitioning state.

:class:`PartitionState` binds a hypergraph to a mutable assignment and
keeps, under single-module moves:

* per-net pin counts per part (``counts[p][e]``),
* the number of parts each net spans,
* the weighted cut and weighted sum-of-degrees objectives,
* per-part total areas.

This is the bookkeeping all the iterative engines (FM, CLIP, k-way FM,
LSMC descents) share.  A state may be restricted to a subset of
*active* nets — the FM engines exclude nets larger than a threshold
(200 in the paper) and measure final quality on the full netlist via
:mod:`repro.partition.objectives`.

The O(pins) construction sweep and every move bind the hypergraph's
kernel lists (``net_pins``, ``module_nets``, ``weights_list``,
``areas_list``) locally and perform only index operations per pin.
:meth:`PartitionState.compiled` is the compiled sweep (``init_state``
in :mod:`repro.fm.native`): the same values, ``part_area``'s float bits
included, in ``array`` buffers.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from .solution import Partition

__all__ = ["PartitionState"]


def _as_sorted_tuple(active_nets: Sequence[int]) -> Tuple[int, ...]:
    """``active_nets`` as a strictly-increasing tuple.

    The engines always pass an already-sorted, duplicate-free net list
    (a filtered ``range``); detecting that case keeps construction
    O(n) instead of re-sorting a sorted input every FM call.
    """
    nets = tuple(active_nets)
    if all(nets[i] < nets[i + 1] for i in range(len(nets) - 1)):
        return nets
    return tuple(sorted(set(nets)))


def _flags(hg: Hypergraph, active_nets: Tuple[int, ...]) -> List[bool]:
    """Per-net ``active`` flags of a sorted, duplicate-free net tuple."""
    if len(active_nets) == hg.num_nets:
        return [True] * hg.num_nets
    flags = [False] * hg.num_nets
    for e in active_nets:
        flags[e] = True
    return flags


class PartitionState:
    """Mutable k-way partition with O(pins(v)) single-module moves."""

    # The netlist views :meth:`move` reads, bound once (views are
    # properties); a compiled state binds the flat arrays and no
    # incidence, since the compiled pass makes its moves.
    __slots__ = ("hg", "k", "part_of", "part_area", "counts", "spans",
                 "cut_weight", "soed_weight", "active", "_active_nets",
                 "_areas", "_weights", "_module_nets")

    def __init__(self, hg: Hypergraph, partition: Partition,
                 active_nets: Optional[Sequence[int]] = None):
        if partition.num_modules != hg.num_modules:
            raise PartitionError(
                f"partition covers {partition.num_modules} modules but "
                f"hypergraph has {hg.num_modules}")
        self.hg = hg
        self.k = partition.k
        self.part_of: List[int] = list(partition.assignment)

        self.part_area = [0.0] * self.k
        areas = self._areas = hg.areas_list
        self._weights = hg.weights_list
        self._module_nets = hg.module_nets
        for v, p in enumerate(self.part_of):
            self.part_area[p] += areas[v]

        if active_nets is None:
            active_nets = hg.active_nets(None)
        # The engines pass the netlist's own cached active-net tuple,
        # sorted by construction: no O(nets) scan for it.
        elif not any(active_nets is cached
                     for cached in hg._active_cache.values()):
            active_nets = _as_sorted_tuple(active_nets)
        self._active_nets = active_nets
        self.active = _flags(hg, active_nets)

        self.counts: List[List[int]] = [[0] * hg.num_nets
                                        for _ in range(self.k)]
        self.spans: List[int] = [0] * hg.num_nets
        self.cut_weight = 0
        self.soed_weight = 0
        self._init_counts()

    @classmethod
    def compiled(cls, kernel, hg: Hypergraph, partition: Partition,
                 max_net_size: Optional[int]
                 ) -> Tuple["PartitionState", int]:
        """A bipartition state over ``hg.active_nets(max_net_size)``
        from the compiled sweep, in the ``array`` buffers the compiled
        pass writes in place, and the gain bound
        (:meth:`Hypergraph.max_weighted_degree`) from the same sweep."""
        if partition.num_modules != hg.num_modules:
            raise PartitionError(
                f"partition covers {partition.num_modules} modules but "
                f"hypergraph has {hg.num_modules}")
        self = cls.__new__(cls)
        self.hg = hg
        self.k = 2
        m = hg.num_nets
        self.part_of = array("i", partition.assignment)
        self.counts = [array("i", [0]) * m, array("i", [0]) * m]
        self.spans = array("i", [0]) * m
        self.part_area = array("d", [0.0, 0.0])
        self._weights, self._areas = hg.flat[2:]
        self._module_nets = None
        self._active_nets = hg.active_nets(max_net_size)
        self.active = _flags(hg, self._active_nets)
        threshold = -1 if max_net_size is None else \
            min(max_net_size, hg.num_pins)
        self.cut_weight, self.soed_weight, bound = kernel.init_state(
            *hg.flat, self.part_of, *self.counts, self.spans,
            self.part_area, threshold)
        return self, bound

    def _init_counts(self) -> None:
        """Construction sweep over the kernel lists (the compiled
        ``init_state`` is the bipartition fast path)."""
        net_pins = self.hg.net_pins
        net_weights = self._weights
        part_of = self.part_of
        counts = self.counts
        spans = self.spans
        cut_w = 0
        soed_w = 0
        for e in self._active_nets:
            present = 0
            for v in net_pins[e]:
                row = counts[part_of[v]]
                if row[e] == 0:
                    present += 1
                row[e] += 1
            spans[e] = present
            if present > 1:
                w = net_weights[e]
                cut_w += w
                soed_w += w * present
        self.cut_weight = cut_w
        self.soed_weight = soed_w

    # ------------------------------------------------------------------

    def active_nets(self) -> Tuple[int, ...]:
        """Nets participating in incremental objective tracking.

        Returns the state's own cached tuple (callers must not rely on
        getting a fresh mutable copy; the tuple is shared).
        """
        return self._active_nets

    def pins_in(self, part: int, net: int) -> int:
        """Number of ``net``'s pins currently in ``part``."""
        return self.counts[part][net]

    def move(self, module: int, dst: int) -> None:
        """Move ``module`` to part ``dst``, updating all bookkeeping."""
        src = self.part_of[module]
        if src == dst:
            return
        area = self._areas[module]
        self.part_of[module] = dst
        self.part_area[src] -= area
        self.part_area[dst] += area

        counts_src = self.counts[src]
        counts_dst = self.counts[dst]
        active = self.active
        spans = self.spans
        net_weights = self._weights
        cut_w = self.cut_weight
        soed_w = self.soed_weight
        for e in (self._module_nets or self.hg.module_nets)[module]:
            if not active[e]:
                continue
            w = net_weights[e]
            s = spans[e]
            c = counts_src[e] - 1
            counts_src[e] = c
            if c == 0:
                s -= 1
                soed_w -= w if s > 1 else (2 * w if s == 1 else 0)
                if s == 1:
                    cut_w -= w
            c = counts_dst[e] + 1
            counts_dst[e] = c
            if c == 1:
                s += 1
                soed_w += w if s > 2 else (2 * w if s == 2 else 0)
                if s == 2:
                    cut_w += w
            spans[e] = s
        self.cut_weight = cut_w
        self.soed_weight = soed_w

    # ------------------------------------------------------------------

    def to_partition(self) -> Partition:
        """Snapshot the current assignment."""
        return Partition._trusted(list(self.part_of), self.k)

    def verify(self) -> None:
        """Recompute every cached quantity and raise on any mismatch.

        Used by tests and by the replay audit; O(pins).
        """
        hg = self.hg
        areas = [0.0] * self.k
        for v, p in enumerate(self.part_of):
            areas[p] += hg.area(v)
        for p in range(self.k):
            if abs(areas[p] - self.part_area[p]) > 1e-6:
                raise PartitionError(
                    f"part {p} cached area {self.part_area[p]} != "
                    f"actual {areas[p]}")
        cut_w = 0
        soed_w = 0
        for e in self._active_nets:
            per_part = [0] * self.k
            for v in hg.pins(e):
                per_part[self.part_of[v]] += 1
            s = sum(1 for c in per_part if c)
            for p in range(self.k):
                if per_part[p] != self.counts[p][e]:
                    raise PartitionError(
                        f"net {e} part {p}: cached count "
                        f"{self.counts[p][e]} != actual {per_part[p]}")
            if s != self.spans[e]:
                raise PartitionError(
                    f"net {e}: cached spans {self.spans[e]} != actual {s}")
            if s > 1:
                w = hg.net_weight(e)
                cut_w += w
                soed_w += w * s
        if cut_w != self.cut_weight:
            raise PartitionError(
                f"cached cut {self.cut_weight} != actual {cut_w}")
        if soed_w != self.soed_weight:
            raise PartitionError(
                f"cached soed {self.soed_weight} != actual {soed_w}")
