"""The ``Project`` procedure (Definition 2).

Projection (uncoarsening) maps a solution of the coarse netlist
``H_{i+1}`` back onto the fine netlist ``H_i``: every module inherits
the part of its cluster.
"""

from __future__ import annotations

from ..errors import ClusteringError
from ..partition import Partition
from .clustering import Clustering

__all__ = ["project"]


def project(coarse_partition: Partition,
            clustering: Clustering) -> Partition:
    """Project a partition of the induced netlist onto the fine netlist.

    ``coarse_partition`` partitions the clusters of ``clustering``; the
    result assigns each fine module to its cluster's part.
    """
    if coarse_partition.num_modules != clustering.num_clusters:
        raise ClusteringError(
            f"coarse partition covers {coarse_partition.num_modules} "
            f"modules but clustering produced "
            f"{clustering.num_clusters} clusters")
    coarse = coarse_partition.assignment
    fine = [coarse[c] for c in clustering.cluster_of]
    return Partition._trusted(fine, coarse_partition.k)
