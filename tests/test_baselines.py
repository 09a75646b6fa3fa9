"""Tests for the comparator algorithms (LSMC, two-phase, spectral,
GORDIAN-sim, PROP)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import (gordian_bipartition, gordian_quadrisection,
                             kick, lsmc_bipartition, lsmc_kway,
                             perimeter_positions, prop_bipartition,
                             quadratic_placement, spectral_bipartition,
                             two_phase_fm)
from repro.baselines.spectral import clique_laplacian, fiedler_vector
from repro.errors import ConfigError, PartitionError
from repro.fm import FMConfig, fm_bipartition
from repro.hypergraph import Hypergraph, hierarchical_circuit, load_circuit
from repro.partition import BalanceConstraint, Partition, cut
from repro.rng import child_seeds, make_rng


class TestKick:
    def test_moves_requested_fraction(self, medium_hg):
        p = Partition([0] * medium_hg.num_modules, k=2)
        kicked = kick(medium_hg, p, make_rng(0), fraction=0.2)
        moved = sum(1 for a, b in zip(p.assignment, kicked.assignment)
                    if a != b)
        assert moved == round(0.2 * medium_hg.num_modules)

    def test_kway_targets_differ(self, medium_hg):
        p = Partition([0] * medium_hg.num_modules, k=4)
        kicked = kick(medium_hg, p, make_rng(1), fraction=0.5)
        assert set(kicked.assignment) > {0}

    def test_input_unmodified(self, medium_hg):
        p = Partition([0] * medium_hg.num_modules, k=2)
        kick(medium_hg, p, make_rng(2))
        assert set(p.assignment) == {0}

    def test_bad_fraction(self, medium_hg):
        p = Partition([0] * medium_hg.num_modules, k=2)
        with pytest.raises(ConfigError):
            kick(medium_hg, p, make_rng(0), fraction=0.0)


class TestLSMC:
    def test_valid_and_balanced(self, medium_hg):
        result = lsmc_bipartition(medium_hg, descents=5, seed=1)
        assert result.cut == cut(medium_hg, result.partition)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_descent_count_recorded(self, medium_hg):
        result = lsmc_bipartition(medium_hg, descents=4, seed=2)
        assert result.descents == 4
        assert len(result.descent_cuts) == 4

    def test_best_is_min_descent(self, medium_hg):
        result = lsmc_bipartition(medium_hg, descents=6, seed=3)
        assert result.cut == min(result.descent_cuts)

    def test_more_descents_never_worse(self, medium_hg):
        few = lsmc_bipartition(medium_hg, descents=2, seed=4)
        many = lsmc_bipartition(medium_hg, descents=8, seed=4)
        assert many.cut <= few.cut

    def test_beats_single_fm_on_average(self, medium_hg):
        seeds = child_seeds(5, 4)
        fm_avg = sum(fm_bipartition(medium_hg, seed=s).cut
                     for s in seeds) / len(seeds)
        lsmc_avg = sum(lsmc_bipartition(medium_hg, descents=6, seed=s).cut
                       for s in seeds) / len(seeds)
        assert lsmc_avg <= fm_avg

    def test_zero_descents_rejected(self, medium_hg):
        with pytest.raises(ConfigError):
            lsmc_bipartition(medium_hg, descents=0)

    def test_kway_variant(self, medium_hg):
        result = lsmc_kway(medium_hg, k=4, descents=3, seed=6)
        assert result.cut == cut(medium_hg, result.partition)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1, k=4)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_kway_clip_engine(self, medium_hg):
        result = lsmc_kway(medium_hg, k=4, descents=3,
                           config=FMConfig(clip=True), seed=7)
        assert result.cut == cut(medium_hg, result.partition)


class TestTwoPhase:
    def test_valid_and_balanced(self, medium_hg):
        result = two_phase_fm(medium_hg, seed=1)
        assert result.cut == cut(medium_hg, result.partition)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_deterministic(self, medium_hg):
        assert two_phase_fm(medium_hg, seed=2).cut == \
            two_phase_fm(medium_hg, seed=2).cut

    def test_degenerate_netlist_falls_back(self):
        """All-isolated modules cannot be matched: plain FM runs."""
        hg = Hypergraph([[0, 1]], num_modules=2)
        result = two_phase_fm(hg, seed=0)
        assert result.cut in (0, 1)


class TestSpectral:
    def test_laplacian_rows_sum_to_zero(self, medium_hg):
        import numpy as np
        laplacian = clique_laplacian(medium_hg)
        sums = np.asarray(laplacian.sum(axis=1)).ravel()
        assert np.allclose(sums, 0.0)

    def test_fiedler_orthogonal_to_ones(self, medium_hg):
        import numpy as np
        fiedler = fiedler_vector(medium_hg, seed=0)
        assert abs(np.dot(fiedler, np.ones(len(fiedler)))) < 1e-4 * \
            np.linalg.norm(fiedler) * len(fiedler) ** 0.5

    def test_raw_split_balanced(self, medium_hg):
        result = spectral_bipartition(medium_hg, refine=False, seed=1)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_refined_not_worse(self, medium_hg):
        raw = spectral_bipartition(medium_hg, refine=False, seed=2)
        refined = spectral_bipartition(medium_hg, refine=True, seed=2)
        assert refined.cut <= raw.cut

    def test_good_on_planted_structure(self):
        hg = hierarchical_circuit(400, 500, locality=0.9, seed=9)
        spectral = spectral_bipartition(hg, refine=False, seed=3).cut
        from repro.partition import random_partition
        random_cut = cut(hg, random_partition(hg, seed=3))
        assert spectral < 0.7 * random_cut

    def test_tiny_instance(self):
        hg = Hypergraph([[0, 1]], num_modules=2)
        result = spectral_bipartition(hg, refine=False, seed=0)
        assert result.partition.part_sizes() == [1, 1]

    def test_disconnected_netlist_reproducible_across_processes(self):
        # avqsmall@0.05's clique graph has 5 components, so eigenvalue 0
        # has multiplicity 5: the whole Laplacian's second eigenvector
        # is arbitrary, and its cuts changed from process to process.
        script = ("from repro.hypergraph import load_circuit\n"
                  "from repro.solvers import single_run\n"
                  "hg = load_circuit('avqsmall', scale=0.05, seed=0)\n"
                  "print([single_run('spectral', hg, seed=s).cut "
                  "for s in range(4)])\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        outputs = {subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  check=True, timeout=120).stdout
                   for _ in range(3)}
        assert len(outputs) == 1, outputs

    @pytest.mark.parametrize("name, scale, cuts", [
        ("primary1", 0.5, [32, 32, 32, 32]),
        ("avqsmall", 0.02, [35, 35, 35, 35]),
        ("biomed", 0.1, [47, 47, 47, 47]),
    ])
    def test_connected_netlist_cuts_unchanged(self, name, scale, cuts):
        # One component: the component-wise order is the Fiedler order.
        from repro.solvers import single_run
        hg = load_circuit(name, scale=scale, seed=0)
        assert [single_run("spectral", hg, seed=s).cut
                for s in range(4)] == cuts


class TestGordian:
    def test_perimeter_positions_on_border(self):
        for x, y in perimeter_positions(17):
            assert x in (0.0, 1.0) or y in (0.0, 1.0)
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_perimeter_rejects_zero(self):
        with pytest.raises(PartitionError):
            perimeter_positions(0)

    def test_placement_anchors_pads(self, medium_hg):
        pads = [0, 5, 10, 15]
        positions = perimeter_positions(4)
        x, y = quadratic_placement(medium_hg, pads, positions)
        for pad, (px, py) in zip(pads, positions):
            assert x[pad] == px and y[pad] == py

    def test_placement_inside_hull(self, medium_hg):
        pads = list(range(0, medium_hg.num_modules, 17))
        x, y = quadratic_placement(medium_hg, pads,
                                   perimeter_positions(len(pads)))
        assert x.min() >= -1e-9 and x.max() <= 1 + 1e-9
        assert y.min() >= -1e-9 and y.max() <= 1 + 1e-9

    def test_duplicate_pads_rejected(self, medium_hg):
        with pytest.raises(PartitionError, match="duplicate"):
            quadratic_placement(medium_hg, [0, 0],
                                perimeter_positions(2))

    def test_pad_position_mismatch(self, medium_hg):
        with pytest.raises(PartitionError):
            quadratic_placement(medium_hg, [0, 1], perimeter_positions(3))

    def test_bipartition_halves_area(self, medium_hg):
        result = gordian_bipartition(medium_hg, seed=1)
        areas = result.partition.part_areas(medium_hg)
        assert abs(areas[0] - areas[1]) <= medium_hg.max_area

    def test_quadrisection_quarters(self, medium_hg):
        result = gordian_quadrisection(medium_hg, seed=2)
        sizes = result.partition.part_sizes()
        assert max(sizes) - min(sizes) <= 2
        assert result.cut == cut(medium_hg, result.partition)

    def test_quadrisection_rejects_tiny(self):
        hg = Hypergraph([[0, 1]], num_modules=2)
        with pytest.raises(PartitionError):
            gordian_quadrisection(hg, seed=0)

    def test_deterministic(self, medium_hg):
        a = gordian_quadrisection(medium_hg, seed=3)
        b = gordian_quadrisection(medium_hg, seed=3)
        assert a.partition == b.partition


class TestProp:
    def test_valid_and_balanced(self, medium_hg):
        result = prop_bipartition(medium_hg, seed=1)
        assert result.cut == cut(medium_hg, result.partition)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_improves_on_initial(self, medium_hg):
        result = prop_bipartition(medium_hg, seed=2)
        assert result.cut <= result.initial_cut

    def test_deterministic(self, medium_hg):
        assert prop_bipartition(medium_hg, seed=3).cut == \
            prop_bipartition(medium_hg, seed=3).cut

    def test_finds_planted_bridge(self, tiny_hg):
        assert prop_bipartition(tiny_hg, seed=0).cut == 1

    def test_bad_probability(self, medium_hg):
        with pytest.raises(PartitionError):
            prop_bipartition(medium_hg, initial_probability=1.0)
