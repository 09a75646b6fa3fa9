"""Tests for the ML multilevel algorithm (Figure 2)."""

import pytest

from repro.core import MLConfig, build_hierarchy, ml_bipartition
from repro.errors import ClusteringError, ConfigError
from repro.fm import fm_bipartition
from repro.harness import run_cell
from repro.hypergraph import Hypergraph, grid_circuit, hierarchical_circuit
from repro.partition import BalanceConstraint, cut
from repro.rng import child_seeds
from repro.runtime import Algorithm, Portfolio, execute


class TestMLConfig:
    def test_paper_defaults(self):
        config = MLConfig()
        assert config.coarsening_threshold == 35
        assert config.matching_ratio == 1.0
        assert config.engine == "fm"
        assert config.matching_scheme == "conn"

    def test_engine_config_applies_clip(self):
        assert MLConfig(engine="clip").engine_config().clip
        assert not MLConfig(engine="fm").engine_config().clip

    def test_invalid_threshold(self):
        with pytest.raises(ConfigError):
            MLConfig(coarsening_threshold=1)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            MLConfig(matching_ratio=0.0)

    def test_invalid_engine(self):
        with pytest.raises(ConfigError):
            MLConfig(engine="prop")


class TestHierarchy:
    def test_structure(self, large_hg):
        h = build_hierarchy(large_hg, MLConfig(), seed=0)
        assert len(h.netlists) == len(h.clusterings) + 1
        assert h.netlists[0] is large_hg
        assert h.levels >= 1

    def test_sizes_strictly_decrease(self, large_hg):
        h = build_hierarchy(large_hg, MLConfig(), seed=0)
        sizes = h.module_counts()
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_area_preserved_through_levels(self, large_hg):
        h = build_hierarchy(large_hg, MLConfig(), seed=1)
        for netlist in h.netlists:
            assert netlist.total_area == pytest.approx(large_hg.total_area)

    def test_threshold_respected_or_stalled(self, large_hg):
        config = MLConfig(coarsening_threshold=50)
        h = build_hierarchy(large_hg, config, seed=2)
        # either we reached the threshold or the last step stalled
        if h.coarsest.num_modules > 50:
            # then one more match() would not shrink it — verified by
            # the break condition; re-check it here
            from repro.clustering import match
            c = match(h.coarsest, ratio=1.0, seed=0)
            assert c.num_clusters >= int(0.95 * h.coarsest.num_modules) \
                or h.levels == config.max_levels

    def test_slower_ratio_gives_more_levels(self, large_hg):
        fast = build_hierarchy(large_hg, MLConfig(matching_ratio=1.0),
                               seed=3)
        slow = build_hierarchy(large_hg, MLConfig(matching_ratio=0.4),
                               seed=3)
        assert slow.levels > fast.levels

    def test_max_levels_cap(self, large_hg):
        config = MLConfig(max_levels=2)
        h = build_hierarchy(large_hg, config, seed=4)
        assert h.levels <= 2


class TestMLBipartition:
    def test_reported_cut_matches_reference(self, large_hg):
        result = ml_bipartition(large_hg, seed=1)
        assert result.cut == cut(large_hg, result.partition)

    def test_balance_respected(self, large_hg):
        constraint = BalanceConstraint.from_tolerance(large_hg, 0.1)
        for seed in child_seeds(0, 4):
            result = ml_bipartition(large_hg, seed=seed)
            assert constraint.is_feasible(
                result.partition.part_areas(large_hg))

    def test_deterministic(self, large_hg):
        a = ml_bipartition(large_hg, seed=5)
        b = ml_bipartition(large_hg, seed=5)
        assert a.cut == b.cut
        assert a.partition == b.partition

    def test_level_metadata(self, large_hg):
        result = ml_bipartition(large_hg, seed=2)
        assert result.levels == len(result.level_sizes) - 1
        assert len(result.level_cuts) == result.levels + 1
        assert result.level_sizes[0] == large_hg.num_modules

    def test_finds_grid_optimum(self):
        hg = grid_circuit(8, 16, seed=7)
        best = min(ml_bipartition(hg, seed=s).cut
                   for s in child_seeds(0, 5))
        assert best == 8

    @pytest.mark.parametrize("engine", ["fm", "clip"])
    def test_both_engines(self, large_hg, engine):
        result = ml_bipartition(large_hg, config=MLConfig(engine=engine),
                                seed=3)
        assert result.cut == cut(large_hg, result.partition)

    def test_small_instance_skips_coarsening(self, tiny_hg):
        result = ml_bipartition(tiny_hg, seed=0)
        assert result.levels == 0
        assert result.cut == 1

    def test_single_module_rejected(self):
        hg = Hypergraph([], num_modules=1)
        with pytest.raises(ClusteringError):
            ml_bipartition(hg, seed=0)

    def test_ml_beats_flat_fm_on_average(self):
        """The paper's central claim (Table IV) at reduced scale."""
        hg = hierarchical_circuit(1500, 1800, seed=41)
        seeds = child_seeds(9, 6)
        fm_avg = sum(fm_bipartition(hg, seed=s).cut
                     for s in seeds) / len(seeds)
        ml_avg = sum(ml_bipartition(hg, seed=s).cut
                     for s in seeds) / len(seeds)
        assert ml_avg < fm_avg

    @pytest.mark.parametrize("scheme", ["conn", "heavy", "random"])
    def test_matching_scheme_ablations_work(self, large_hg, scheme):
        config = MLConfig(matching_scheme=scheme)
        result = ml_bipartition(large_hg, config=config, seed=4)
        assert result.cut == cut(large_hg, result.partition)


def _ml() -> Algorithm:
    return Algorithm("ML", lambda hg, s: ml_bipartition(hg, seed=s))


class TestMultistart:
    """The paper's N-start protocol, run through the runtime portfolio."""

    def test_stats(self, medium_hg):
        outcome = execute(Portfolio(_ml(), medium_hg, runs=5, seed=0,
                                    keep_results=True))
        stats = outcome.to_cell_stats()
        assert stats.runs == 5
        assert stats.min_cut == min(stats.cuts)
        assert stats.min_cut <= stats.avg_cut
        best = outcome.best.result.partition
        assert cut(medium_hg, best) == stats.min_cut
        assert run_cell(_ml(), medium_hg, runs=5, seed=0).cuts == stats.cuts

    def test_prefix_property(self, medium_hg):
        """Run i is identical whether 3 or 6 runs were requested."""
        small = run_cell(_ml(), medium_hg, runs=3, seed=7)
        big = run_cell(_ml(), medium_hg, runs=6, seed=7)
        assert big.cuts[:3] == small.cuts

    def test_prefix_method(self, medium_hg):
        """The first 3 records of a 6-run portfolio are the 3-run
        portfolio's records, best partition included (Table VII's
        short column is such a prefix)."""
        full = execute(Portfolio(_ml(), medium_hg, runs=6, seed=8,
                                 keep_results=True))
        head = execute(Portfolio(_ml(), medium_hg, runs=3, seed=8,
                                 keep_results=True))
        assert full.cuts[:3] == head.cuts
        best = min(full.records[:3], key=lambda r: (r.cut, r.index))
        assert best.index == head.best.index
        assert best.result.partition == head.best.result.partition
        assert cut(medium_hg, best.result.partition) == min(full.cuts[:3])

    def test_zero_runs_rejected(self, medium_hg):
        with pytest.raises(ConfigError):
            run_cell(_ml(), medium_hg, runs=0)
