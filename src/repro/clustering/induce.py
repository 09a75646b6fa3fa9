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

#: Below this module count the vectorized mapping's fixed dispatch
#: overhead loses to the scalar merge loop; identical results.
_NP_INDUCE_MIN_MODULES = 128


def _induce_numpy(hg: Hypergraph, cluster_of, k: int,
                  merge_parallel: bool) -> Hypergraph:
    """Fully vectorized Induce; bit-identical to the scalar path.

    The per-net sorted distinct cluster sets come from one lexsort of
    (net, cluster) pairs plus a first-occurrence mask; cluster areas
    from a weighted ``bincount``, whose in-order C loop accumulates
    each cluster's members in ascending module order exactly like the
    scalar sweep.  Parallel-net merging groups the surviving nets by
    degree — nets of different degree can never be parallel — and runs
    ``np.unique(axis=0)`` on each degree class's pin matrix; each
    group's weight is an integer ``bincount`` sum (commutative, so
    identical to the scalar dict accumulation) and groups are emitted
    in order of their first member net, which is exactly the scalar
    merge-dict insertion order.  The coarse netlist is returned in
    flat CSR form (:meth:`Hypergraph._from_flat`), so its tuple
    structures are never built unless a scalar kernel asks.
    """
    import numpy as np
    view = hg.np
    cl = np.asarray(cluster_of, dtype=np.int64)
    areas = np.bincount(cl, weights=view.areas, minlength=k).tolist()

    pin_clusters = cl[view.pins_flat]
    if hg.num_nets * k < (1 << 62):
        order = np.argsort(view.net_ids * np.int64(k) + pin_clusters,
                           kind="stable")
    else:  # pragma: no cover - needs ~2^31 nets*clusters
        order = np.lexsort((pin_clusters, view.net_ids))
    es = view.net_ids[order]
    cs = pin_clusters[order]
    fresh = np.empty(cs.size, dtype=bool)
    if cs.size:
        fresh[0] = True
        fresh[1:] = (es[1:] != es[:-1]) | (cs[1:] != cs[:-1])
    distinct = cs[fresh]
    deg_all = np.bincount(es[fresh], minlength=hg.num_nets)

    # Surviving (multi-cluster) nets, in ascending net order; their
    # sorted-distinct pin segments packed flat.
    survives = deg_all >= 2
    deg = deg_all[survives]
    sdistinct = distinct[np.repeat(survives, deg_all)]
    soff = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(deg)))
    w_surv = view.net_weights[survives]

    if not merge_parallel or deg.size == 0:
        xpins = soff
        pins_flat = sdistinct
        weights = w_surv.tolist()
        return Hypergraph._from_flat(xpins, pins_flat, areas, weights,
                                     name=hg.name)

    first_parts = []
    weight_parts = []
    deg_parts = []
    start_parts = []
    content_parts = []
    base = 0
    for s_obj in np.unique(deg):
        s = int(s_obj)
        ids = np.flatnonzero(deg == s)
        mat = sdistinct[soff[ids][:, None] + np.arange(s, dtype=np.int64)]
        # Group identical rows with one stable lexicographic sort:
        # within a block of equal rows the original (ascending net)
        # order survives, so the block head is the scalar merge's
        # insertion position for that group.  When the row fits a
        # single int64 (cluster ids are < k), a packed Horner key
        # turns the s-pass lexsort into one radix sort.
        if s * max(k, 2).bit_length() < 62:
            key = mat[:, 0].astype(np.int64)
            for col in range(1, s):
                key = key * k + mat[:, col]
            order = np.argsort(key, kind="stable")
            sk = key[order]
            sm = mat[order]
            head = np.empty(sm.shape[0], dtype=bool)
            head[0] = True
            np.not_equal(sk[1:], sk[:-1], out=head[1:])
        else:  # pragma: no cover - needs very wide nets * huge k
            order = np.lexsort(mat.T[::-1])
            sm = mat[order]
            head = np.empty(sm.shape[0], dtype=bool)
            head[0] = True
            np.any(sm[1:] != sm[:-1], axis=1, out=head[1:])
        gid = np.cumsum(head) - 1
        g = int(gid[-1]) + 1
        first_parts.append(ids[order][head])
        weight_parts.append(np.bincount(
            gid, weights=w_surv[ids][order], minlength=g
        ).astype(np.int64))
        deg_parts.append(np.full(g, s, dtype=np.int64))
        start_parts.append(base + np.arange(g, dtype=np.int64) * s)
        content_parts.append(sm[head].ravel())
        base += g * s

    all_first = np.concatenate(first_parts)
    emit = np.argsort(all_first)
    out_deg = np.concatenate(deg_parts)[emit]
    out_start = np.concatenate(start_parts)[emit]
    weights = np.concatenate(weight_parts)[emit].tolist()
    content = np.concatenate(content_parts)
    xpins = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(out_deg)))
    total = int(xpins[-1])
    gather = (np.arange(total, dtype=np.int64)
              + np.repeat(out_start - xpins[:-1], out_deg))
    pins_flat = content[gather]
    return Hypergraph._from_flat(xpins, pins_flat, areas, weights,
                                 name=hg.name)


def induce(hg: Hypergraph, clustering: Clustering,
           merge_parallel: bool = True,
           vectorized: bool = False) -> Hypergraph:
    """Build the coarser netlist induced by ``clustering`` on ``hg``.

    ``vectorized`` selects :func:`_induce_numpy`, which returns the
    identical netlist in flat CSR form (the ``mlb`` algorithm's
    coarsening; DESIGN.md §13).
    """
    if clustering.num_modules != hg.num_modules:
        raise ClusteringError(
            f"clustering covers {clustering.num_modules} modules, "
            f"hypergraph has {hg.num_modules}")
    cluster_of = clustering.cluster_of
    k = clustering.num_clusters

    if vectorized and hg.num_modules >= _NP_INDUCE_MIN_MODULES:
        return _induce_numpy(hg, cluster_of, k, merge_parallel)

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
