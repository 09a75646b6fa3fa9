"""repro — a reproduction of "Multilevel Circuit Partitioning"
(C. J. Alpert, J.-H. Huang, A. B. Kahng, 1997).

The package implements the paper's ML multilevel min-cut hypergraph
partitioner and everything it stands on: the netlist hypergraph
substrate, FM/CLIP iterative engines with LIFO/FIFO/RANDOM gain
buckets, Match/Induce/Project coarsening, multi-way FM for
quadrisection, the comparator algorithms (LSMC, two-phase FM, spectral
bisection, a GORDIAN-style quadratic-placement simulator, PROP), a
top-down quadrisection placer, and an experiment harness regenerating
every table and figure of the paper's evaluation.

Quickstart::

    from repro import hierarchical_circuit, ml_bipartition, MLConfig

    netlist = hierarchical_circuit(2000, 2400, seed=1)
    result = ml_bipartition(netlist,
                            config=MLConfig(engine="clip",
                                            matching_ratio=0.5),
                            seed=42)
    print(result.cut, result.levels)
"""

from .core import (MLConfig, MLKWayResult, MLResult, build_hierarchy,
                   default_quad_config, ml_bipartition, ml_kway,
                   ml_quadrisection, recursive_bisection, ml_vcycle)
from .clustering import Clustering, connectivity, induce, match, project
from .errors import (BalanceError, ClusteringError, ConfigError,
                     HarnessError, HypergraphError, ParseError,
                     PartitionError, ReproError)
from .hypergraph import (Hypergraph, HypergraphBuilder, benchmark_names,
                         benchmark_spec, grid_circuit,
                         hierarchical_circuit, load_circuit, load_suite,
                         random_hypergraph, read_hmetis, read_json,
                         read_netd, write_hmetis, write_json)
from .partition import (BalanceConstraint, Partition, PartitionState,
                        absorption, cut, random_partition, ratio_cut,
                        scaled_cost, soed, summarize)
from .fm import (FMConfig, FMResult, KWayResult, clip_bipartition,
                 fm_bipartition, kway_partition)
from .runtime import (HierarchyCache, Portfolio, PortfolioResult,
                      RunRecord, execute, ml_portfolio)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ml_bipartition",
    "ml_kway",
    "ml_quadrisection",
    "build_hierarchy",
    "MLConfig",
    "MLResult",
    "MLKWayResult",
    "default_quad_config",
    "recursive_bisection",
    "ml_vcycle",
    # hypergraph
    "Hypergraph",
    "HypergraphBuilder",
    "hierarchical_circuit",
    "grid_circuit",
    "random_hypergraph",
    "load_circuit",
    "load_suite",
    "benchmark_names",
    "benchmark_spec",
    "read_hmetis",
    "write_hmetis",
    "read_json",
    "read_netd",
    "write_json",
    # partitioning
    "Partition",
    "random_partition",
    "PartitionState",
    "BalanceConstraint",
    "cut",
    "soed",
    "ratio_cut",
    "scaled_cost",
    "absorption",
    "summarize",
    # engines
    "FMConfig",
    "FMResult",
    "fm_bipartition",
    "clip_bipartition",
    "KWayResult",
    "kway_partition",
    # clustering
    "Clustering",
    "match",
    "connectivity",
    "induce",
    "project",
    # runtime
    "Portfolio",
    "PortfolioResult",
    "RunRecord",
    "execute",
    "HierarchyCache",
    "ml_portfolio",
    # errors
    "ReproError",
    "HypergraphError",
    "ParseError",
    "PartitionError",
    "BalanceError",
    "ClusteringError",
    "ConfigError",
    "HarnessError",
]
