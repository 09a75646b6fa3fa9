"""Spectral bisection baseline (Hagen–Kahng EIG1 lineage [18]).

Referenced throughout the paper as the classical comparator that
PARABOLI beat by 50% (Section IV-C).  The netlist hypergraph is
expanded into a weighted graph with the standard clique model — each
net of size ``s`` and weight ``w`` contributes an edge of weight
``w / (s - 1)`` between every pin pair — and the Fiedler vector of its
Laplacian induces a module ordering that is split at the best
area-feasible point; a disconnected netlist is ordered component by
component.  An optional FM refinement polishes the split (the usual
"spectral + FM" configuration).
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..partition import BalanceConstraint, Partition, cut
from ..rng import SeedLike, make_rng
from ..fm.config import FMConfig
from ..fm.engine import FMResult, fm_bipartition

__all__ = ["clique_laplacian", "fiedler_vector", "spectral_bipartition"]


def clique_laplacian(hg: Hypergraph) -> sp.csr_matrix:
    """Laplacian of the clique-expansion graph of ``hg``."""
    n = hg.num_modules
    rows, cols, vals = [], [], []
    for e in hg.all_nets():
        pins = hg.pins(e)
        w = hg.net_weight(e) / (len(pins) - 1)
        for i, u in enumerate(pins):
            for v in pins[i + 1:]:
                rows.extend((u, v))
                cols.extend((v, u))
                vals.extend((-w, -w))
    adjacency = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    degrees = -np.asarray(adjacency.sum(axis=1)).ravel()
    return (sp.diags(degrees) + adjacency).tocsr()


def fiedler_vector(hg: Hypergraph, seed: SeedLike = None) -> np.ndarray:
    """Eigenvector of the second-smallest Laplacian eigenvalue."""
    return _fiedler(clique_laplacian(hg), _np_rng(seed))


def _np_rng(seed: SeedLike) -> np.random.Generator:
    return np.random.default_rng(make_rng(seed).randrange(2**32))


def _fiedler(laplacian: sp.csr_matrix,
             rng: np.random.Generator) -> np.ndarray:
    """The Fiedler vector of ``laplacian``.

    Uses shift-invert at a small negative shift (the Laplacian is
    singular at 0, so the shift keeps the factorisation nonsingular).
    Falls back to a dense solve for tiny or numerically stubborn
    instances.
    """
    n = laplacian.shape[0]
    if n < 3:
        return np.arange(n, dtype=float)
    if n <= 64:
        values, vectors = np.linalg.eigh(laplacian.toarray())
        return vectors[:, 1]
    try:
        v0 = rng.standard_normal(n)
        _, vectors = spla.eigsh(laplacian.tocsc(), k=2, sigma=-1e-3,
                                which="LM", v0=v0)
        return vectors[:, 1]
    except Exception:
        values, vectors = np.linalg.eigh(laplacian.toarray())
        return vectors[:, 1]


def _spectral_order(hg: Hypergraph, seed: SeedLike = None) -> np.ndarray:
    """The modules component by component, largest first (ties by
    smallest module id), each ordered by its own Fiedler vector.  On a
    disconnected netlist eigenvalue 0 repeats, so the whole Laplacian's
    second eigenvector is arbitrary and its order need not repeat from
    one process to the next."""
    laplacian = clique_laplacian(hg)
    rng = _np_rng(seed)
    count, labels = csgraph.connected_components(laplacian)
    if count == 1:
        return np.argsort(_fiedler(laplacian, rng), kind="stable")
    members = np.argsort(labels, kind="stable")
    components = np.split(members, np.cumsum(np.bincount(labels))[:-1])
    components.sort(key=lambda nodes: (-len(nodes), nodes[0]))
    return np.concatenate([
        nodes[np.argsort(_fiedler(laplacian[nodes][:, nodes], rng),
                         kind="stable")]
        for nodes in components])


def spectral_bipartition(hg: Hypergraph,
                         config: Optional[FMConfig] = None,
                         refine: bool = True,
                         seed: SeedLike = None,
                         rng: Optional[random.Random] = None) -> FMResult:
    """Fiedler-ordering bisection, optionally FM-refined.

    The ordering is split at the prefix whose area is closest to half
    the total (the split is always balance-feasible under the paper's
    constraint because module areas are bounded by ``A(v*)``).
    """
    if hg.num_modules < 2:
        raise PartitionError("cannot bipartition fewer than two modules")
    config = config or FMConfig()
    rng = rng if rng is not None else make_rng(seed)
    order = _spectral_order(hg, seed=rng.randrange(2**32))

    half = hg.total_area / 2
    assignment = [1] * hg.num_modules
    accumulated = 0.0
    for v in order:
        if accumulated + hg.area(int(v)) > half and accumulated > 0:
            break
        assignment[int(v)] = 0
        accumulated += hg.area(int(v))
    partition = Partition(assignment, 2)

    if not refine:
        solution_cut = cut(hg, partition)
        return FMResult(partition=partition, cut=solution_cut,
                        internal_cut=solution_cut,
                        initial_cut=solution_cut, passes=0, total_moves=0)
    balance = BalanceConstraint.from_tolerance(hg, config.tolerance, k=2)
    return fm_bipartition(hg, initial=partition, config=config,
                          balance=balance, rng=rng)
