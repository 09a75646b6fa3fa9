"""Tests for multilevel quadrisection."""

import pytest

from repro.core import (MLConfig, default_quad_config, ml_kway,
                        ml_quadrisection)
from repro.core import ml as ml_module
from repro.errors import ClusteringError, ConfigError, PartitionError
from repro.hypergraph import hierarchical_circuit, load_circuit
from repro.partition import BalanceConstraint, cut, soed
from repro.rng import child_seeds


class TestDefaults:
    def test_table_ix_settings(self):
        config = default_quad_config()
        assert config.coarsening_threshold == 100
        assert config.matching_ratio == 1.0
        assert config.engine == "fm"


class TestMLKWay:
    def test_reported_metrics(self, large_hg):
        result = ml_quadrisection(large_hg, seed=1)
        assert result.k == 4
        assert result.cut == cut(large_hg, result.partition)
        assert result.soed == soed(large_hg, result.partition)

    def test_balance(self, large_hg):
        constraint = BalanceConstraint.from_tolerance(large_hg, 0.1, k=4)
        result = ml_quadrisection(large_hg, seed=2)
        assert constraint.is_feasible(result.partition.part_areas(large_hg))

    def test_deterministic(self, medium_hg):
        a = ml_quadrisection(medium_hg, seed=3)
        b = ml_quadrisection(medium_hg, seed=3)
        assert a.partition == b.partition

    def test_k3(self, medium_hg):
        result = ml_kway(medium_hg, k=3, seed=4)
        assert result.partition.k == 3
        assert result.cut == cut(medium_hg, result.partition)

    def test_rejects_too_few_modules(self):
        from repro.hypergraph import Hypergraph
        hg = Hypergraph([[0, 1]], num_modules=2)
        with pytest.raises(ClusteringError):
            ml_kway(hg, k=4)

    def test_level_metadata(self, large_hg):
        result = ml_quadrisection(large_hg, seed=5)
        assert result.level_sizes[0] == large_hg.num_modules
        assert len(result.level_cuts) == result.levels + 1

    def test_cut_objective_mode(self, medium_hg):
        result = ml_quadrisection(medium_hg, objective="cut", seed=6)
        assert result.cut == cut(medium_hg, result.partition)


class TestFixedModules:
    def test_preassignment_respected(self, medium_hg):
        fixed = [-1] * medium_hg.num_modules
        fixed[0], fixed[1], fixed[2], fixed[3] = 0, 1, 2, 3
        result = ml_quadrisection(medium_hg, fixed=fixed, seed=7)
        for v in range(4):
            assert result.partition.part_of(v) == v

    def test_bad_fixed_length(self, medium_hg):
        with pytest.raises(PartitionError):
            ml_quadrisection(medium_hg, fixed=[0, 1], seed=0)

    def test_bad_fixed_part(self, medium_hg):
        fixed = [-1] * medium_hg.num_modules
        fixed[0] = 7
        with pytest.raises(PartitionError):
            ml_quadrisection(medium_hg, fixed=fixed, seed=0)

    def test_preassignment_respected_without_coarsening(self):
        # 42 modules, below T = 100: no level is built, so the
        # pre-assignment is imposed on the random start.
        hg = load_circuit("primary1", scale=0.05)
        fixed = [v % 4 if v < 20 else -1 for v in range(hg.num_modules)]
        result = ml_kway(hg, k=4, fixed=fixed, seed=1)
        assert result.levels == 0
        assert [result.partition.part_of(v) for v in range(20)] == \
            fixed[:20]
        assert (result.cut, result.soed) == \
            (cut(hg, result.partition), soed(hg, result.partition))

    @pytest.fixture
    def coarsenings(self, monkeypatch):
        """The module counts of the netlists ``coarsen_step`` coarsens."""
        calls = []
        real = ml_module.coarsen_step

        def spy(*args, **kwargs):
            calls.append(args[0].num_modules)
            return real(*args, **kwargs)
        monkeypatch.setattr(ml_module, "coarsen_step", spy)
        return calls

    @pytest.mark.parametrize("bad", [[0, 1], 4, 7, -2])
    def test_bad_fixed_rejected_before_coarsening(self, medium_hg,
                                                  coarsenings, bad):
        fixed = [-1] * medium_hg.num_modules
        ml_kway(medium_hg, fixed=fixed, seed=0)
        assert coarsenings  # the spy sees a valid run coarsen
        coarsenings.clear()
        if isinstance(bad, list):
            fixed = bad
        else:
            fixed[5] = bad
        with pytest.raises(PartitionError):
            ml_kway(medium_hg, fixed=fixed, seed=0)
        assert coarsenings == []

    @pytest.mark.parametrize("bad,error", [({"objective": "bogus"},
                                            ConfigError),
                                           ({"k": 1}, PartitionError)])
    def test_bad_k_or_objective_rejected_before_coarsening(
            self, medium_hg, coarsenings, bad, error):
        ml_kway(medium_hg, seed=0)
        assert coarsenings  # the spy sees a valid run coarsen
        coarsenings.clear()
        with pytest.raises(error):
            ml_kway(medium_hg, seed=0, **bad)
        assert coarsenings == []


class TestQuality:
    def test_ml_beats_flat_kway_on_average(self):
        """Table IX's direction: ML_F 4-way beats flat FM 4-way."""
        from repro.fm import kway_partition
        hg = hierarchical_circuit(900, 1100, seed=51)
        seeds = child_seeds(3, 4)
        flat_avg = sum(kway_partition(hg, k=4, seed=s).cut
                       for s in seeds) / len(seeds)
        ml_avg = sum(ml_quadrisection(hg, seed=s).cut
                     for s in seeds) / len(seeds)
        assert ml_avg < flat_avg
