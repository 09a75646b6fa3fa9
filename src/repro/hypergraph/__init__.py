"""Netlist hypergraph substrate: representation, construction, I/O,
synthetic benchmark generators, and the Table I suite registry."""

from .builder import HypergraphBuilder
from .generators import (grid_circuit, hierarchical_circuit,
                         random_hypergraph)
from .hypergraph import Hypergraph
from .io import (netlist_from_dict, netlist_to_dict, read_are, read_hmetis,
                 read_json, read_netd, write_are, write_hmetis, write_json,
                 write_netd)
from .stats import (HypergraphStats, compute_stats, degree_histogram,
                    net_size_histogram)
from .suite import (MINI_SCALE, TABLE_I, BenchmarkSpec, benchmark_names,
                    benchmark_spec, load_circuit, load_suite,
                    mini_suite_names)
from .validate import assert_same_structure, check_consistency

__all__ = [
    "Hypergraph",
    "HypergraphBuilder",
    "hierarchical_circuit",
    "grid_circuit",
    "random_hypergraph",
    "read_hmetis",
    "write_hmetis",
    "read_json",
    "netlist_from_dict",
    "netlist_to_dict",
    "read_netd",
    "read_are",
    "write_netd",
    "write_are",
    "write_json",
    "HypergraphStats",
    "compute_stats",
    "net_size_histogram",
    "degree_histogram",
    "BenchmarkSpec",
    "TABLE_I",
    "MINI_SCALE",
    "benchmark_names",
    "benchmark_spec",
    "load_circuit",
    "load_suite",
    "mini_suite_names",
    "check_consistency",
    "assert_same_structure",
]
