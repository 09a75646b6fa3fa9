"""Shared fixtures for the test suite."""

import os

import pytest

# The run ledger is on by default; the suite executes hundreds of
# portfolios and must not grow one.  Ledger tests opt back in by
# monkeypatching REPRO_LEDGER to a tmp path.
os.environ.setdefault("REPRO_LEDGER", "off")

from repro.hypergraph import Hypergraph, grid_circuit, hierarchical_circuit


@pytest.fixture
def tiny_hg() -> Hypergraph:
    """Six modules, five nets; small enough to verify by hand.

    Structure: two natural triangles {0,1,2} and {3,4,5} joined by one
    bridge net {2, 3}.  The optimal bisection cuts exactly 1 net.
    """
    return Hypergraph(
        nets=[[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]],
        num_modules=6,
        name="tiny")


@pytest.fixture
def weighted_hg() -> Hypergraph:
    """Four modules with mixed areas and net weights."""
    return Hypergraph(
        nets=[[0, 1], [1, 2, 3], [0, 3]],
        num_modules=4,
        areas=[1.0, 2.0, 3.0, 4.0],
        net_weights=[2, 1, 3],
        name="weighted")


@pytest.fixture
def grid_hg() -> Hypergraph:
    """8 x 8 mesh: optimal bisection cuts 8 nets."""
    return grid_circuit(8, 8, seed=5)


@pytest.fixture
def medium_hg() -> Hypergraph:
    """A 300-module hierarchical circuit for engine-level tests."""
    return hierarchical_circuit(300, 360, seed=17, name="medium")


@pytest.fixture
def large_hg() -> Hypergraph:
    """A 1000-module hierarchical circuit for multilevel tests."""
    return hierarchical_circuit(1000, 1200, seed=23, name="large")
