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
"""

from __future__ import annotations

import random
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


def _neighbour_scores(hg: Hypergraph, v: int, matched: List[bool],
                      max_net_size: int) -> Dict[int, float]:
    """Net-connectivity score of each unmatched neighbour of ``v``.

    This is the ``Conn`` array + neighbour set ``S`` of Section III-A,
    realised as a dict so reinitialisation is free.
    """
    # The scan is the coarsening hot path (one call per matched
    # module), so bind the kernel lists locally and use dict.get directly.
    scores: Dict[int, float] = {}
    net_sizes = hg.sizes_list
    net_weights = hg.weights_list
    net_pins = hg.net_pins
    get = scores.get
    for e in hg.module_nets[v]:
        size = net_sizes[e]
        if size > max_net_size:
            continue
        contribution = net_weights[e] / (size - 1)
        for w in net_pins[e]:
            if w != v and not matched[w]:
                scores[w] = get(w, 0.0) + contribution
    return scores


#: Below this module count the per-call overhead of building the pair
#: table outweighs the scalar scorer; identical results either way.
_NP_MATCH_MIN_MODULES = 128


def _pair_table(hg: Hypergraph, max_net_size: int, scheme: str):
    """All ordered neighbour pairs with their summed net contributions.

    Vectorized twin of running :func:`_neighbour_scores` for every
    module with nothing matched: returns ``(xrow, nbr, None)`` where
    module ``v``'s neighbours are ``nbr[xrow[v]:xrow[v+1]]``; each
    pair's score is ``sum over shared small nets e of
    w_e / (|e| - 1)``.  Scores for a pair are accumulated in
    ascending net order via ``np.add.at`` (an in-order unbuffered
    loop), which is exactly the order the scalar scorer adds them in —
    ``module_nets[v]`` is ascending — so every float is bit-identical.
    For the ``conn`` scheme the area normalisation
    ``score / (A(v) * A(w))`` is applied here, vectorized: it is the
    exact per-pair expression the scalar selection evaluates, computed
    elementwise, so every quotient is bit-identical too.  The
    ``matched`` / ``restrict`` filters don't change any pair's score,
    only its eligibility, so the selection loop applies them at visit
    time just like the scalar path.
    """
    import numpy as np
    view = hg.np
    sizes = view.net_sizes
    eligible = (sizes <= max_net_size) & (sizes >= 2)
    pair_v = []
    pair_w = []
    pair_e = []
    pair_c = []
    for s_obj in np.unique(sizes[eligible]):
        s = int(s_obj)
        ids = np.flatnonzero(eligible & (sizes == s))
        mat = view.pins_flat[view.xpins[ids][:, None]
                             + np.arange(s, dtype=np.int64)]
        ii, jj = np.nonzero(~np.eye(s, dtype=bool))
        pair_v.append(mat[:, ii].ravel())
        pair_w.append(mat[:, jj].ravel())
        pair_e.append(np.repeat(ids, s * (s - 1)))
        contribution = view.net_weights[ids].astype(np.float64) / (s - 1)
        pair_c.append(np.repeat(contribution, s * (s - 1)))
    n = view.num_modules
    if not pair_v:
        xrow = np.zeros(n + 1, dtype=np.int64)
        return xrow.tolist(), [], None
    all_v = np.concatenate(pair_v)
    all_w = np.concatenate(pair_w)
    all_e = np.concatenate(pair_e)
    all_c = np.concatenate(pair_c)
    m = hg.num_nets
    if n * n * m < (1 << 62):
        # One radix sort of a packed (v, w, e) key beats three lexsort
        # passes; the key is unique per entry so ordering is total.
        key = (all_v.astype(np.int64) * n + all_w) * m + all_e
        order = np.argsort(key, kind="stable")
    else:  # pragma: no cover - needs ~2^21 modules
        order = np.lexsort((all_e, all_w, all_v))
    vs = all_v[order]
    ws = all_w[order]
    fresh = np.empty(vs.size, dtype=bool)
    fresh[0] = True
    fresh[1:] = (vs[1:] != vs[:-1]) | (ws[1:] != ws[:-1])
    slot = np.cumsum(fresh) - 1
    score = np.zeros(int(slot[-1]) + 1)
    np.add.at(score, slot, all_c[order])
    v_u = vs[fresh]
    w_u = ws[fresh]
    if scheme == "conn":
        score /= view.areas[v_u] * view.areas[w_u]
    if scheme != "random":
        # Within each row sort by (score desc, id asc).  The scalar
        # selection scans ascending ids taking strict improvements, so
        # its winner is the highest-scoring eligible neighbour with the
        # smallest id among ties — exactly the first eligible entry of
        # this ordering.  Selection then never reads the scores at all.
        # (All scores are positive, so the scalar ``> 0.0`` floor never
        # bites.)  The ``random`` scheme keeps ascending-id rows: its
        # candidate list order feeds ``rng.choice``.
        # Stable two-key sort: rows arrive with ascending ids, so equal
        # scores keep ascending-id order without a third key pass.
        order2 = np.lexsort((-score, v_u))
        w_u = w_u[order2]
    xrow = np.concatenate(
        (np.zeros(1, dtype=np.int64),
         np.cumsum(np.bincount(v_u, minlength=n))))
    return xrow.tolist(), w_u.tolist(), None


def match(hg: Hypergraph,
          ratio: float = 1.0,
          scheme: str = "conn",
          max_conn_net_size: int = DEFAULT_MAX_CONN_NET_SIZE,
          seed: SeedLike = None,
          rng: Optional[random.Random] = None,
          restrict: Optional[List[int]] = None,
          vectorized: bool = False) -> Clustering:
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
    vectorized:
        Precompute every pair score in one NumPy sweep
        (:func:`_pair_table`) instead of scoring each visited module's
        neighbourhood.  The matching is identical either way; the
        ``mlb`` algorithm selects it because its array-native levels
        feed array-based refinement (DESIGN.md §13).
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

    # Decision recording: one ``merge`` event per opened cluster; the
    # leftover singletons of Steps 8-10 are implicit (ascending ids).
    from ..obs import recorder
    rec = recorder()
    rec_on = rec.enabled

    n = hg.num_modules
    areas = hg.areas_list
    perm = random_permutation(n, rng)
    matched = [False] * n
    cluster_of = [-1] * n
    num_clusters = 0
    n_match = 0

    # Vectorized: all pair scores are precomputed in one sweep; the
    # visit loop below then only filters and tie-breaks.  Scores,
    # candidate order, and therefore the whole matching are
    # bit-identical to the scalar scorer (see _pair_table).
    use_table = vectorized and n >= _NP_MATCH_MIN_MODULES
    if use_table:
        xrow, nbr, nbr_score = _pair_table(hg, max_conn_net_size, scheme)

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
        if use_table:
            a, b = xrow[v], xrow[v + 1]
            if scheme == "random":
                candidates = [w for w in nbr[a:b]
                              if not matched[w]
                              and (restrict is None
                                   or restrict[w] == restrict[v])]
                if candidates:
                    best = rng.choice(candidates)
            else:
                # Rows are pre-sorted by (score desc, id asc) with the
                # conn normalisation applied (see _pair_table), so the
                # first eligible neighbour is the scalar loop's winner.
                if restrict is None:
                    for i in range(a, b):
                        w = nbr[i]
                        if not matched[w]:
                            best = w
                            break
                else:
                    rv = restrict[v]
                    for i in range(a, b):
                        w = nbr[i]
                        if not matched[w] and restrict[w] == rv:
                            best = w
                            break
        else:
            scores = _neighbour_scores(hg, v, matched, max_conn_net_size)
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
        if rec_on:
            rec.emit({"t": "merge", "v": v, "w": best})

    # Steps 8-10: every remaining module becomes a singleton cluster.
    for v in range(n):
        if not matched[v]:
            cluster_of[v] = num_clusters
            num_clusters += 1

    return Clustering(cluster_of)
