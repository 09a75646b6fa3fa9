"""Clustering value object (the ``P^k`` of Definitions 1 and 2).

A k-way clustering of a netlist assigns every module to exactly one
cluster.  A clustering and a partitioning are formally the same object
(paper, footnote 1); this class is the "many small clusters" flavour
used for coarsening, while :class:`repro.partition.Partition` is the
"few big parts" flavour used for solutions.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import ClusteringError
from ..hypergraph import Hypergraph

__all__ = ["Clustering"]


class Clustering:
    """Assignment of ``n`` modules to clusters ``0..k-1``.

    Cluster ids must be contiguous starting at zero (use
    :meth:`from_groups` when building from explicit module groups).
    """

    __slots__ = ("cluster_of", "num_clusters")

    def __init__(self, cluster_of: Sequence[int]):
        cluster_of = list(cluster_of)
        if not cluster_of:
            raise ClusteringError("clustering over zero modules")
        k = max(cluster_of) + 1
        seen = [False] * k
        for v, c in enumerate(cluster_of):
            if not 0 <= c < k:
                raise ClusteringError(
                    f"module {v} in cluster {c}, outside [0, {k})")
            seen[c] = True
        missing = [c for c in range(k) if not seen[c]]
        if missing:
            raise ClusteringError(
                f"cluster ids not contiguous; empty ids: {missing[:5]}")
        self.cluster_of = cluster_of
        self.num_clusters = k

    @classmethod
    def _trusted(cls, cluster_of: List[int],
                 num_clusters: int) -> "Clustering":
        """Construct from a pre-validated assignment (contiguous ids
        ``0..num_clusters-1``, all used), skipping the checks: the
        compiled Match's path."""
        self = cls.__new__(cls)
        self.cluster_of = cluster_of
        self.num_clusters = num_clusters
        return self

    @classmethod
    def from_groups(cls, groups: Iterable[Iterable[int]],
                    num_modules: int) -> "Clustering":
        """Build from explicit disjoint module groups covering all modules."""
        cluster_of = [-1] * num_modules
        count = 0
        for c, group in enumerate(groups):
            for v in group:
                if not 0 <= v < num_modules:
                    raise ClusteringError(
                        f"cluster {c} contains out-of-range module {v}")
                if cluster_of[v] != -1:
                    raise ClusteringError(
                        f"module {v} appears in clusters {cluster_of[v]} "
                        f"and {c}")
                cluster_of[v] = c
            count = c + 1
        uncovered = [v for v, c in enumerate(cluster_of) if c == -1]
        if uncovered:
            raise ClusteringError(
                f"modules not covered by any cluster: {uncovered[:5]}")
        if count == 0:
            raise ClusteringError("no clusters given")
        return cls(cluster_of)

    # ------------------------------------------------------------------

    @property
    def num_modules(self) -> int:
        return len(self.cluster_of)

    def groups(self) -> List[List[int]]:
        """Modules grouped by cluster (the ``C_1 ... C_k``)."""
        out: List[List[int]] = [[] for _ in range(self.num_clusters)]
        for v, c in enumerate(self.cluster_of):
            out[c].append(v)
        return out

    def cluster_areas(self, hg: Hypergraph) -> List[float]:
        """Total module area per cluster (preserved by ``Induce``)."""
        if hg.num_modules != self.num_modules:
            raise ClusteringError(
                f"clustering covers {self.num_modules} modules, hypergraph "
                f"has {hg.num_modules}")
        areas = [0.0] * self.num_clusters
        for v, c in enumerate(self.cluster_of):
            areas[c] += hg.area(v)
        return areas

    def max_cluster_size(self) -> int:
        sizes = [0] * self.num_clusters
        for c in self.cluster_of:
            sizes[c] += 1
        return max(sizes)

    def matched_fraction(self) -> float:
        """Achieved matching ratio ``nMatch / |V|`` of a pairing.

        ``Match`` only ever merges modules two at a time, so each of
        the ``|V| - k`` merges accounts for two matched modules; the
        remainder are singletons.  This is the quantity the ratio
        ``R`` bounds (Figure 3) and what the coarsening trace reports
        per level.
        """
        return 2.0 * (self.num_modules - self.num_clusters) \
            / self.num_modules

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Clustering(modules={self.num_modules}, "
                f"clusters={self.num_clusters})")
