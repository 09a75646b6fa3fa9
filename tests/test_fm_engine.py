"""Tests for the FM bipartitioning engine."""

import pytest

from repro.errors import ConfigError, PartitionError
from repro.fm import FMConfig, fm_bipartition
from repro.hypergraph import Hypergraph, grid_circuit, hierarchical_circuit
from repro.partition import BalanceConstraint, Partition, cut
from repro.rng import child_seeds


class TestConfig:
    def test_defaults_match_paper(self):
        config = FMConfig()
        assert config.bucket_policy == "lifo"
        assert not config.clip
        assert config.tolerance == 0.1
        assert config.max_net_size == 200

    def test_invalid_policy(self):
        with pytest.raises(ConfigError):
            FMConfig(bucket_policy="heap")

    def test_invalid_tolerance(self):
        with pytest.raises(ConfigError):
            FMConfig(tolerance=1.0)

    def test_invalid_max_net_size(self):
        with pytest.raises(ConfigError):
            FMConfig(max_net_size=1)

    def test_invalid_max_passes(self):
        with pytest.raises(ConfigError):
            FMConfig(max_passes=0)


class TestCorrectness:
    def test_reported_cut_matches_reference(self, medium_hg):
        result = fm_bipartition(medium_hg, seed=1)
        assert result.cut == cut(medium_hg, result.partition)

    def test_balance_respected(self, medium_hg):
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        for seed in child_seeds(0, 5):
            result = fm_bipartition(medium_hg, seed=seed)
            areas = result.partition.part_areas(medium_hg)
            assert constraint.is_feasible(areas)

    def test_improves_on_initial(self, medium_hg):
        for seed in child_seeds(1, 5):
            result = fm_bipartition(medium_hg, seed=seed)
            assert result.cut <= result.initial_cut

    def test_refinement_never_worsens_given_solution(self, medium_hg):
        from repro.partition import random_partition
        initial = random_partition(medium_hg, seed=9)
        before = cut(medium_hg, initial)
        result = fm_bipartition(medium_hg, initial=initial, seed=9)
        assert result.cut <= before

    def test_finds_grid_optimum(self):
        hg = grid_circuit(6, 12, seed=3)
        best = min(fm_bipartition(hg, seed=s).cut
                   for s in child_seeds(0, 10))
        assert best == 6

    def test_finds_planted_bridge(self, tiny_hg):
        result = fm_bipartition(tiny_hg, seed=0)
        assert result.cut == 1

    def test_deterministic_given_seed(self, medium_hg):
        a = fm_bipartition(medium_hg, seed=4)
        b = fm_bipartition(medium_hg, seed=4)
        assert a.cut == b.cut
        assert a.partition == b.partition

    def test_pass_cuts_monotone_nonincreasing(self, medium_hg):
        result = fm_bipartition(medium_hg, seed=5)
        for earlier, later in zip(result.pass_cuts, result.pass_cuts[1:]):
            assert later <= earlier

    def test_rejects_kway_initial(self, medium_hg):
        from repro.partition import random_partition
        with pytest.raises(PartitionError, match="k=2"):
            fm_bipartition(medium_hg,
                           initial=random_partition(medium_hg, k=4, seed=0))

    def test_rebalances_infeasible_initial(self, medium_hg):
        bad = Partition([0] * medium_hg.num_modules, k=2)
        result = fm_bipartition(medium_hg, initial=bad, seed=0)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))


class TestLargeNets:
    def test_large_nets_excluded_but_counted(self):
        """A net over every module is ignored for refinement but still
        included in the reported cut."""
        base = [[i, i + 1] for i in range(9)]
        big = [list(range(10))]
        hg = Hypergraph(base + big, num_modules=10)
        config = FMConfig(max_net_size=5)
        result = fm_bipartition(hg, config=config, seed=0)
        # any genuine bipartition cuts the big net
        assert result.cut == result.internal_cut + 1

    def test_threshold_inclusive(self):
        nets = [[0, 1, 2], [2, 3], [0, 3]]
        hg = Hypergraph(nets, num_modules=4)
        result = fm_bipartition(hg, config=FMConfig(max_net_size=3), seed=0)
        assert result.cut == result.internal_cut


class TestPolicies:
    @pytest.mark.parametrize("policy", ["lifo", "fifo", "random"])
    def test_all_policies_produce_valid_solutions(self, medium_hg, policy):
        config = FMConfig(bucket_policy=policy)
        result = fm_bipartition(medium_hg, config=config, seed=2)
        assert result.cut == cut(medium_hg, result.partition)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_lifo_beats_fifo_on_average(self):
        """The paper's Table II headline at reduced scale."""
        hg = hierarchical_circuit(600, 720, seed=13)
        seeds = child_seeds(7, 8)
        lifo = [fm_bipartition(hg, config=FMConfig(bucket_policy="lifo"),
                               seed=s).cut for s in seeds]
        fifo = [fm_bipartition(hg, config=FMConfig(bucket_policy="fifo"),
                               seed=s).cut for s in seeds]
        assert sum(lifo) / len(lifo) < sum(fifo) / len(fifo)


class TestMaxPasses:
    def test_single_pass(self, medium_hg):
        result = fm_bipartition(medium_hg, seed=6,
                                config=FMConfig(max_passes=1))
        assert result.passes == 1

    def test_more_passes_never_hurt(self, medium_hg):
        one = fm_bipartition(medium_hg, seed=6,
                             config=FMConfig(max_passes=1))
        many = fm_bipartition(medium_hg, seed=6)
        assert many.cut <= one.cut


class TestFixedModules:
    def test_fixed_never_move(self, medium_hg):
        from repro.partition import random_partition
        initial = random_partition(medium_hg, seed=21)
        fixed = [v % 7 == 0 for v in range(medium_hg.num_modules)]
        result = fm_bipartition(medium_hg, initial=initial, fixed=fixed,
                                seed=21)
        for v in range(medium_hg.num_modules):
            if fixed[v]:
                assert result.partition.part_of(v) == initial.part_of(v)

    def test_fixed_with_clip(self, medium_hg):
        from repro.partition import random_partition
        initial = random_partition(medium_hg, seed=22)
        fixed = [v % 9 == 0 for v in range(medium_hg.num_modules)]
        result = fm_bipartition(medium_hg, initial=initial, fixed=fixed,
                                config=FMConfig(clip=True), seed=22)
        for v in range(medium_hg.num_modules):
            if fixed[v]:
                assert result.partition.part_of(v) == initial.part_of(v)

    def test_fixed_with_lookahead(self, medium_hg):
        from repro.partition import random_partition
        initial = random_partition(medium_hg, seed=23)
        fixed = [v % 11 == 0 for v in range(medium_hg.num_modules)]
        result = fm_bipartition(medium_hg, initial=initial, fixed=fixed,
                                config=FMConfig(lookahead=2), seed=23)
        for v in range(medium_hg.num_modules):
            if fixed[v]:
                assert result.partition.part_of(v) == initial.part_of(v)

    def test_all_fixed_returns_initial(self, medium_hg):
        from repro.partition import random_partition
        initial = random_partition(medium_hg, seed=24)
        result = fm_bipartition(medium_hg, initial=initial,
                                fixed=[True] * medium_hg.num_modules,
                                seed=24)
        assert result.partition == initial

    def test_bad_fixed_length(self, medium_hg):
        with pytest.raises(PartitionError, match="fixed"):
            fm_bipartition(medium_hg, fixed=[True, False], seed=0)

    def test_rebalance_respects_fixed(self, medium_hg):
        """Grossly unbalanced start with fixed modules: rebalancing
        must move only free modules."""
        n = medium_hg.num_modules
        initial = Partition([0] * n, k=2)
        fixed = [v < n // 8 for v in range(n)]
        result = fm_bipartition(medium_hg, initial=initial, fixed=fixed,
                                seed=25)
        for v in range(n // 8):
            assert result.partition.part_of(v) == 0


class TestWeightedInstances:
    def test_weighted_nets_drive_gains(self):
        """With a heavy net, FM must prefer cutting the light nets."""
        nets = [[0, 1], [2, 3], [0, 2], [1, 3]]
        weights = [100, 100, 1, 1]
        hg = Hypergraph(nets, num_modules=4, net_weights=weights)
        best = min(fm_bipartition(hg, seed=s).cut
                   for s in child_seeds(0, 8))
        assert best == 2  # cut the two unit nets, never a heavy one

    def test_heterogeneous_areas(self):
        areas = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 1.0]
        nets = [[i, (i + 1) % 8] for i in range(8)]
        hg = Hypergraph(nets, num_modules=8, areas=areas)
        result = fm_bipartition(hg, seed=0)
        constraint = BalanceConstraint.from_tolerance(hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(hg))
