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
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ClusteringError
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
