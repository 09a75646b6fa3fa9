"""Unit tests for the Hypergraph representation."""

import pickle

import pytest

from repro.core import MLConfig, build_hierarchy
from repro.errors import HypergraphError
from repro.hypergraph import Hypergraph, hierarchical_circuit, load_circuit
from repro.hypergraph.validate import check_consistency
from repro.solvers import single_run


class TestConstruction:
    def test_basic_counts(self, tiny_hg):
        assert tiny_hg.num_modules == 6
        assert tiny_hg.num_nets == 7
        assert tiny_hg.num_pins == 14

    def test_default_unit_areas(self, tiny_hg):
        assert tiny_hg.is_unit_area()
        assert tiny_hg.total_area == 6.0
        assert tiny_hg.max_area == 1.0

    def test_default_unit_weights(self, tiny_hg):
        assert all(tiny_hg.net_weight(e) == 1 for e in tiny_hg.all_nets())
        assert tiny_hg.total_net_weight == tiny_hg.num_nets

    def test_explicit_areas_and_weights(self, weighted_hg):
        assert weighted_hg.area(3) == 4.0
        assert weighted_hg.total_area == 10.0
        assert weighted_hg.max_area == 4.0
        assert weighted_hg.net_weight(2) == 3
        assert weighted_hg.total_net_weight == 6

    def test_num_modules_inferred(self):
        hg = Hypergraph([[0, 5]])
        assert hg.num_modules == 6

    def test_num_modules_explicit_larger(self):
        hg = Hypergraph([[0, 1]], num_modules=4)
        assert hg.num_modules == 4
        assert hg.degree(3) == 0

    def test_duplicate_pins_collapsed(self):
        hg = Hypergraph([[0, 1, 0, 1, 2]])
        assert hg.net_size(0) == 3
        assert hg.pins(0) == (0, 1, 2)

    def test_pin_order_preserved(self):
        hg = Hypergraph([[2, 0, 1]])
        assert hg.pins(0) == (2, 0, 1)

    def test_rejects_singleton_net(self):
        with pytest.raises(HypergraphError, match="at least two"):
            Hypergraph([[0]], num_modules=2)

    def test_rejects_net_collapsing_to_singleton(self):
        with pytest.raises(HypergraphError):
            Hypergraph([[1, 1, 1]], num_modules=2)

    def test_rejects_negative_module(self):
        with pytest.raises(HypergraphError, match="negative"):
            Hypergraph([[-1, 0]])

    def test_rejects_out_of_range_pin(self):
        with pytest.raises(HypergraphError, match="num_modules"):
            Hypergraph([[0, 7]], num_modules=3)

    def test_rejects_bad_area_length(self):
        with pytest.raises(HypergraphError, match="areas"):
            Hypergraph([[0, 1]], num_modules=2, areas=[1.0])

    def test_rejects_nonpositive_area(self):
        with pytest.raises(HypergraphError, match="non-positive area"):
            Hypergraph([[0, 1]], num_modules=2, areas=[1.0, 0.0])

    def test_rejects_bad_weight_length(self):
        with pytest.raises(HypergraphError, match="net_weights"):
            Hypergraph([[0, 1]], num_modules=2, net_weights=[1, 2])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(HypergraphError, match="non-positive weight"):
            Hypergraph([[0, 1]], num_modules=2, net_weights=[0])


class TestAccessors:
    def test_nets_of_module(self, tiny_hg):
        assert set(tiny_hg.nets(2)) == {1, 2, 6}
        assert set(tiny_hg.nets(4)) == {3, 4}

    def test_degree(self, tiny_hg):
        assert tiny_hg.degree(2) == 3
        assert tiny_hg.degree(1) == 2

    def test_net_size(self, weighted_hg):
        assert weighted_hg.net_size(1) == 3

    def test_area_of_subset(self, weighted_hg):
        assert weighted_hg.area_of([0, 2]) == 4.0
        assert weighted_hg.area_of([]) == 0.0

    def test_neighbors(self, tiny_hg):
        assert set(tiny_hg.neighbors(2)) == {0, 1, 3}
        assert set(tiny_hg.neighbors(4)) == {3, 5}

    def test_neighbors_excludes_self(self, tiny_hg):
        for v in tiny_hg.modules():
            assert v not in tiny_hg.neighbors(v)

    def test_modules_and_nets_ranges(self, tiny_hg):
        assert list(tiny_hg.modules()) == list(range(6))
        assert list(tiny_hg.all_nets()) == list(range(7))

    def test_areas_returns_copy(self, weighted_hg):
        areas = weighted_hg.areas()
        areas[0] = 99.0
        assert weighted_hg.area(0) == 1.0

    def test_net_weights_returns_copy(self, weighted_hg):
        weights = weighted_hg.net_weights()
        weights[0] = 99
        assert weighted_hg.net_weight(0) == 2


class TestEquality:
    def test_equal_structures(self):
        a = Hypergraph([[0, 1], [1, 2]], num_modules=3)
        b = Hypergraph([[0, 1], [1, 2]], num_modules=3)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_nets(self):
        a = Hypergraph([[0, 1]], num_modules=3)
        b = Hypergraph([[0, 2]], num_modules=3)
        assert a != b

    def test_different_weights(self):
        a = Hypergraph([[0, 1]], net_weights=[1])
        b = Hypergraph([[0, 1]], net_weights=[2])
        assert a != b

    def test_name_ignored_for_equality(self):
        a = Hypergraph([[0, 1]], name="x")
        b = Hypergraph([[0, 1]], name="y")
        assert a == b


def _tuple_built() -> Hypergraph:
    return load_circuit("primary1", scale=0.2, seed=1)


def _flat_built() -> Hypergraph:
    """Level 1 of an ``mlb`` hierarchy: built from flat pin arrays by
    the vectorized Induce, with merged net weights and cluster areas."""
    hier = hierarchical_circuit(600, 700, seed=3, name="hier600")
    level = build_hierarchy(hier, MLConfig(engine="batch"),
                            seed=7).netlists[1]
    assert level._flat is not None
    return level


class TestPickle:
    """A netlist pickles as its defining data only — what a live worker
    pool receives with every shipped portfolio."""

    @pytest.mark.parametrize("build", [_tuple_built, _flat_built])
    def test_round_trip(self, build):
        hg = build()
        copy = pickle.loads(pickle.dumps(hg))
        assert copy.name == hg.name
        if hg._flat is not None:
            # A flat build stays flat: its tuples are rebuilt on demand.
            assert copy._flat is not None and copy._net_pins_s is None
            for mine, theirs in zip(copy._flat, hg._flat):
                assert mine.tolist() == theirs.tolist()
        for name in ("net_pins", "module_nets", "sizes_list",
                     "weights_list", "areas_list"):
            assert getattr(copy, name) == getattr(hg, name), name
        assert (copy.num_pins, copy.total_area, copy.max_area) == \
            (hg.num_pins, hg.total_area, hg.max_area)
        assert copy == hg
        check_consistency(copy)
        for algorithm in ("mlc", "fm", "mlb"):
            want = single_run(algorithm, hg, seed=5)
            got = single_run(algorithm, copy, seed=5)
            assert got.cut == want.cut
            assert got.partition.assignment == want.partition.assignment

    @pytest.mark.parametrize("build", [_tuple_built, _flat_built])
    def test_used_netlist_pickles_like_a_fresh_one(self, build):
        hg = build()
        fresh = pickle.dumps(hg)
        single_run("mlc", hg, seed=2)
        hg.np
        hg.max_weighted_degree(3)
        assert pickle.dumps(hg) == fresh
