"""Tests for structural validation and hypergraph statistics."""

import pytest

from repro import MLConfig, build_hierarchy
from repro.errors import HypergraphError
from repro.hypergraph import (Hypergraph, assert_same_structure,
                              check_consistency, compute_stats,
                              degree_histogram, hierarchical_circuit,
                              net_size_histogram)


class TestCheckConsistency:
    def test_valid_passes(self, tiny_hg, weighted_hg):
        check_consistency(tiny_hg)
        check_consistency(weighted_hg)

    def test_generated_pass(self):
        check_consistency(hierarchical_circuit(120, 150, seed=1))

    def test_tampered_pin_count_detected(self, tiny_hg):
        tiny_hg._net_pins_s = list(tiny_hg.net_pins)
        tiny_hg._net_pins_s[0] += (5,)
        with pytest.raises(HypergraphError, match="num_pins"):
            check_consistency(tiny_hg)

    def test_tampered_area_detected(self, tiny_hg):
        tiny_hg._total_area += 5.0
        with pytest.raises(HypergraphError, match="total_area"):
            check_consistency(tiny_hg)

    def test_tampered_max_area_detected(self, tiny_hg):
        tiny_hg._max_area += 1.0
        with pytest.raises(HypergraphError, match="max_area"):
            check_consistency(tiny_hg)

    def test_tampered_net_size_detected(self, tiny_hg):
        tiny_hg._sizes_s = list(tiny_hg.sizes_list)
        tiny_hg._sizes_s[0] += 1
        with pytest.raises(HypergraphError, match="size"):
            check_consistency(tiny_hg)

    def test_short_weight_list_detected(self, tiny_hg):
        tiny_hg._weights_s = tiny_hg.weights_list[:-1]
        with pytest.raises(HypergraphError, match="net weights"):
            check_consistency(tiny_hg)

    def test_long_area_list_detected(self, tiny_hg):
        tiny_hg._areas_s = tiny_hg.areas_list + [1.0]
        with pytest.raises(HypergraphError, match="module areas"):
            check_consistency(tiny_hg)

    @pytest.mark.parametrize("slot, tampered", [
        ("_net_pins_s", lambda hg: [(1, 0)] + hg.net_pins[1:]),
        ("_weights_s", lambda hg: [2] + hg.weights_list[1:]),
        ("_areas_s", lambda hg: [2.0] + hg.areas_list[1:]),
    ], ids=["pins", "weights", "areas"])
    def test_tampered_view_values_detected(self, tiny_hg, slot, tampered):
        setattr(tiny_hg, slot, tampered(tiny_hg))
        with pytest.raises(HypergraphError, match="differ"):
            check_consistency(tiny_hg)

    def test_every_ml_level_passes(self):
        # Induced levels take the trusted construction path, with
        # merged net weights and cluster areas.
        hg = hierarchical_circuit(600, 700, seed=3)
        hierarchy = build_hierarchy(hg, MLConfig(engine="clip"), seed=7)
        assert hierarchy.levels > 2
        for level in hierarchy.netlists:
            check_consistency(level)

    def test_tampered_incidence_detected(self, tiny_hg):
        tiny_hg._module_nets_s = list(tiny_hg.module_nets)
        tiny_hg._module_nets_s[0] = ()
        with pytest.raises(HypergraphError):
            check_consistency(tiny_hg)


class TestSameStructure:
    def test_identical(self, tiny_hg):
        other = Hypergraph([list(tiny_hg.pins(e))
                            for e in tiny_hg.all_nets()],
                           num_modules=6)
        assert_same_structure(tiny_hg, other)

    def test_module_count_mismatch(self, tiny_hg):
        other = Hypergraph([[0, 1]], num_modules=7)
        with pytest.raises(HypergraphError, match="module counts"):
            assert_same_structure(tiny_hg, other)

    def test_net_count_mismatch(self, tiny_hg):
        other = Hypergraph([[0, 1]], num_modules=6)
        with pytest.raises(HypergraphError, match="net counts"):
            assert_same_structure(tiny_hg, other)

    def test_weight_mismatch(self):
        a = Hypergraph([[0, 1]], net_weights=[1])
        b = Hypergraph([[0, 1]], net_weights=[2])
        with pytest.raises(HypergraphError, match="weights"):
            assert_same_structure(a, b)

    def test_area_mismatch(self):
        a = Hypergraph([[0, 1]], areas=[1.0, 1.0])
        b = Hypergraph([[0, 1]], areas=[1.0, 2.0])
        with pytest.raises(HypergraphError, match="areas"):
            assert_same_structure(a, b)


class TestStats:
    def test_compute_stats(self, weighted_hg):
        stats = compute_stats(weighted_hg)
        assert stats.modules == 4
        assert stats.nets == 3
        assert stats.pins == 7
        assert stats.max_net_size == 3
        assert stats.total_area == 10.0
        assert stats.max_area == 4.0
        assert stats.mean_net_size == pytest.approx(7 / 3)

    def test_as_row(self, tiny_hg):
        row = compute_stats(tiny_hg).as_row()
        assert row["Test Case"] == "tiny"
        assert row["# Pins"] == 14

    def test_net_size_histogram(self, weighted_hg):
        assert net_size_histogram(weighted_hg) == {2: 2, 3: 1}

    def test_degree_histogram(self, tiny_hg):
        hist = degree_histogram(tiny_hg)
        assert sum(hist.values()) == 6
        assert hist[3] == 2  # modules 2 and 3 touch three nets each
