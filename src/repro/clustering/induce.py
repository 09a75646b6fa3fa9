"""The ``Induce`` procedure (Definition 1).

A clustering ``P^k`` of ``H_i`` induces the coarser netlist
``H_{i+1}``: each cluster becomes one module whose area is the summed
area of its members (Figure 2's discussion), and each net maps to the
set of clusters it touches, dropped when that set is a single cluster.

Two coarse nets with identical pin sets are merged into one net whose
weight is the sum of the originals (``merge_parallel=True``, default).
This keeps the coarse netlist small while preserving the cut metric
exactly: the weighted cut of any coarse solution equals the number of
original nets cut by its projection — an invariant the test suite
checks across whole hierarchies.

With ``merge_parallel`` the coarse netlist is built compiled when the
kernel module loads (``induce`` in :mod:`repro.fm.native`), straight
into the flat layout the next level's kernels read, with no Python
object per pin.  The Python loop below is its reference and fallback:
the same cluster areas, summed in module order, and the same coarse
nets, in first-appearance order with sorted pins and summed weights
(DESIGN.md §8).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from ..errors import ClusteringError, PartitionError
from ..hypergraph import Hypergraph
from .clustering import Clustering

__all__ = ["induce"]

def induce(hg: Hypergraph, clustering: Clustering,
           merge_parallel: bool = True) -> Hypergraph:
    """Build the coarser netlist induced by ``clustering`` on ``hg``."""
    if clustering.num_modules != hg.num_modules:
        raise ClusteringError(
            f"clustering covers {clustering.num_modules} modules, "
            f"hypergraph has {hg.num_modules}")
    cluster_of = clustering.cluster_of
    k = clustering.num_clusters
    if merge_parallel:
        from ..fm.native import load
        kernel = load()
        if kernel is not None:
            return _compiled(kernel, hg, cluster_of, k)

    module_areas = hg.areas_list
    net_pins = hg.net_pins
    net_weights = hg.weights_list
    areas = [0.0] * k
    for v, c in enumerate(cluster_of):
        areas[c] += module_areas[v]

    nets: List[Tuple[int, ...]] = []
    weights: List[int] = []
    merged: Dict[Tuple[int, ...], int] = {}
    # Per-net tuple fetch and weight indexing over the kernel lists, with
    # the pin -> cluster mapping and dedup running in C (map + set).
    cluster_at = cluster_of.__getitem__
    for e in range(hg.num_nets):
        coarse = set(map(cluster_at, net_pins[e]))
        if len(coarse) < 2:
            continue  # net absorbed inside one cluster
        key = tuple(sorted(coarse))
        w = net_weights[e]
        if merge_parallel:
            slot = merged.get(key)
            if slot is None:
                merged[key] = len(nets)
                nets.append(key)
                weights.append(w)
            else:
                weights[slot] += w
        else:
            nets.append(key)
            weights.append(w)
    return Hypergraph._trusted(nets, areas, weights, name=hg.name)


def _compiled(kernel, hg: Hypergraph, cluster_of: List[int],
              k: int) -> Hypergraph:
    """:func:`induce` with ``merge_parallel`` in C, into buffers sized
    for the fine netlist and trimmed to the coarse one."""
    xpins, pins, weights, areas = hg.flat
    xpins_out = array("i", [0]) * len(xpins)
    pins_out = array("i", [0]) * len(pins)
    weights_out = array("q", [0]) * len(weights)
    areas_out = array("d", [0.0]) * k
    try:
        nets, used, largest = kernel.induce(
            xpins, pins, weights, areas, array("i", cluster_of),
            xpins_out, pins_out, weights_out, areas_out)
    except OverflowError as exc:
        # The Python loop's weight would fail the gain-bound check of
        # the next refinement with this error class.
        raise PartitionError(str(exc)) from None
    del xpins_out[nets + 1:]
    del pins_out[used:]
    del weights_out[nets:]
    return Hypergraph._from_flat((xpins_out, pins_out, weights_out,
                                  areas_out), hg.name, largest)
