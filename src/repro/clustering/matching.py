"""The Match coarsening algorithm (Figure 3) and baseline matchers.

``Match`` visits modules in a random order; each unmatched module tries
to pair with the unmatched neighbour of highest connectivity

    conn(v, w) = (1 / (A(v) * A(w))) * sum over shared nets e of
                 1 / (|e| - 1)

(the ``1/(|e|-1)`` term emphasises small nets; the area term prefers
small modules, preventing unbalanced cluster growth — Section III-A).
Nets with more than ``max_conn_net_size`` (10) modules are ignored when
computing ``conn``.

The **matching ratio** ``R`` is the paper's key addition: matching stops
once ``nMatch / |V| >= R``, so ``R < 1`` coarsens more slowly and yields
more levels in the multilevel hierarchy.  Every module left unmatched
becomes a singleton cluster.

Two simpler schemes are included as coarsening baselines/ablations:
``random`` maximal matching (Chaco [22]) and ``heavy`` connectivity
matching without the area preference (Metis-style heavy-edge [27]).

The ``conn`` and ``heavy`` schemes run compiled (``match`` in
:mod:`repro.fm.native`) when the kernel module loads; the Python loop
below is its reference and fallback, and runs ``random``.  Both visit
modules in the order :func:`repro.rng.random_permutation` draws here
(an ``array('i')`` the kernel reads as it is), so the seed stream is
the same, and both pick the same partner: scores add up in
``module_nets[v]``-then-``net_pins[e]`` order, and the partner is the
lowest id among the best scores above 0.0 (DESIGN.md §8).
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional

from ..errors import ClusteringError, ConfigError
from ..hypergraph import Hypergraph
from ..rng import SeedLike, make_rng, random_permutation
from .clustering import Clustering

__all__ = ["match", "connectivity", "MATCHING_SCHEMES",
           "DEFAULT_MAX_CONN_NET_SIZE"]

MATCHING_SCHEMES = ("conn", "heavy", "random")

#: Nets larger than this are ignored by ``conn`` (Section III-A).
DEFAULT_MAX_CONN_NET_SIZE = 10


def connectivity(hg: Hypergraph, v: int, w: int,
                 max_net_size: int = DEFAULT_MAX_CONN_NET_SIZE) -> float:
    """Reference (non-incremental) ``conn(v, w)``; used by tests."""
    shared = 0.0
    nets_w = set(hg.nets(w))
    for e in hg.nets(v):
        if e in nets_w and hg.net_size(e) <= max_net_size:
            shared += hg.net_weight(e) / (hg.net_size(e) - 1)
    return shared / (hg.area(v) * hg.area(w))


def _neighbour_scores(views: tuple, v: int, matched: List[bool],
                      max_net_size: int) -> Dict[int, float]:
    """Net-connectivity score of each unmatched neighbour of ``v``.

    This is the ``Conn`` array + neighbour set ``S`` of Section III-A,
    realised as a dict so reinitialisation is free.  ``views`` is the
    netlist's ``(module_nets, net_pins, sizes_list, weights_list)``,
    bound once per Match: the netlist's views are properties.
    """
    # The scan is the coarsening hot path (one call per matched
    # module), so bind the kernel lists locally and use dict.get directly.
    scores: Dict[int, float] = {}
    module_nets, net_pins, net_sizes, net_weights = views
    get = scores.get
    for e in module_nets[v]:
        size = net_sizes[e]
        if size > max_net_size:
            continue
        contribution = net_weights[e] / (size - 1)
        for w in net_pins[e]:
            if w != v and not matched[w]:
                scores[w] = get(w, 0.0) + contribution
    return scores


def match(hg: Hypergraph,
          ratio: float = 1.0,
          scheme: str = "conn",
          max_conn_net_size: int = DEFAULT_MAX_CONN_NET_SIZE,
          seed: SeedLike = None,
          rng: Optional[random.Random] = None,
          restrict: Optional[List[int]] = None) -> Clustering:
    """The ``Match`` procedure (Figure 3).

    Parameters
    ----------
    ratio:
        Matching ratio ``R`` in ``(0, 1]``: the fraction of modules to
        match before stopping.
    scheme:
        ``"conn"`` — the paper's connectivity matching;
        ``"heavy"`` — same but without the area preference;
        ``"random"`` — uniform choice among unmatched neighbours.
    restrict:
        Optional per-module labels; two modules may only be matched
        when their labels are equal.  This is the restricted coarsening
        that V-cycle iteration (hMETIS-style) uses to keep an existing
        partition representable at every coarse level.
    """
    if not 0 < ratio <= 1:
        raise ClusteringError(f"matching ratio must be in (0, 1], got {ratio}")
    if scheme not in MATCHING_SCHEMES:
        raise ConfigError(
            f"scheme must be one of {MATCHING_SCHEMES}, got {scheme!r}")
    if restrict is not None and len(restrict) != hg.num_modules:
        raise ClusteringError(
            f"restrict has length {len(restrict)}, expected "
            f"{hg.num_modules}")
    rng = rng if rng is not None else make_rng(seed)

    n = hg.num_modules
    perm = random_permutation(n, rng)
    kernel = None
    if scheme != "random" and n:
        from ..fm.native import load
        kernel = load()
    labels = None
    if kernel is not None and restrict is not None:
        try:
            labels = array("q", restrict)
        except (TypeError, OverflowError):
            kernel = None  # labels the int64 layout cannot hold
    if kernel is not None:
        cluster_of = array("i", [0]) * n
        pairs = array("i", [0]) * (2 * n)
        clusters, opened = kernel.match(
            *hg.flat, perm if type(perm) is array else array("i", perm),
            labels, scheme == "heavy", ratio,
            max(min(max_conn_net_size, n), 1), cluster_of, pairs)
        _record(pairs[:2 * opened])
        return Clustering._trusted(cluster_of.tolist(), clusters)

    areas = hg.areas_list
    views = (hg.module_nets, hg.net_pins, hg.sizes_list, hg.weights_list)
    matched = [False] * n
    cluster_of = [-1] * n
    num_clusters = 0
    n_match = 0
    pairs: List[int] = []  # (v, w) of every opened cluster, flattened

    for j in range(n):
        if n_match / n >= ratio:
            break
        v = perm[j]
        if matched[v]:
            continue
        # Step 4: open a new cluster holding v.
        cluster = num_clusters
        num_clusters += 1
        cluster_of[v] = cluster
        matched[v] = True

        # Step 5: best unmatched partner under the chosen scheme.
        best = -1
        scores = _neighbour_scores(views, v, matched, max_conn_net_size)
        if restrict is not None:
            scores = {w: s for w, s in scores.items()
                      if restrict[w] == restrict[v]}
        if scores:
            if scheme == "random":
                best = rng.choice(sorted(scores))
            else:
                area_v = areas[v]
                best_score = 0.0
                for w in sorted(scores):
                    s = scores[w]
                    if scheme == "conn":
                        s /= area_v * areas[w]
                    if s > best_score:
                        best_score = s
                        best = w
        # Step 6: close the pair.
        if best >= 0:
            cluster_of[best] = cluster
            matched[best] = True
            n_match += 2
        pairs += (v, best)

    _record(pairs)

    # Steps 8-10: every remaining module becomes a singleton cluster.
    for v in range(n):
        if not matched[v]:
            cluster_of[v] = num_clusters
            num_clusters += 1

    return Clustering(cluster_of)


def _record(pairs) -> None:
    """Decision recording: one ``match`` event holding the flat
    ``(v, partner)`` pairings; the leftover singletons of Steps 8-10
    are implicit (ascending ids)."""
    from ..obs import recorder
    rec = recorder()
    if rec.enabled:
        rec.emit({"t": "match", "p": list(pairs)})
