"""Tests for the Section V future-work extensions: multiple
coarsest-level starts and recursive bisection."""

import pytest

from repro.core import MLConfig, ml_bipartition, recursive_bisection
from repro.errors import ConfigError, PartitionError
from repro.hypergraph import Hypergraph
from repro.partition import cut
from repro.rng import child_seeds


class TestCoarsestStarts:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MLConfig(coarsest_starts=0)

    def test_multiple_starts_never_worse(self, large_hg):
        seeds = child_seeds(11, 4)
        one = [ml_bipartition(large_hg, config=MLConfig(coarsest_starts=1),
                              seed=s).cut for s in seeds]
        many = [ml_bipartition(large_hg, config=MLConfig(coarsest_starts=8),
                               seed=s).cut for s in seeds]
        assert sum(many) <= sum(one) * 1.05

    def test_counts_extra_passes(self, medium_hg):
        one = ml_bipartition(medium_hg, config=MLConfig(coarsest_starts=1),
                             seed=4)
        many = ml_bipartition(medium_hg, config=MLConfig(coarsest_starts=5),
                              seed=4)
        assert many.total_passes > one.total_passes


class TestRecursiveBisection:
    def test_valid_k4(self, large_hg):
        partition = recursive_bisection(large_hg, k=4, seed=1)
        assert partition.k == 4
        sizes = partition.part_sizes()
        assert all(size > 0 for size in sizes)

    def test_k8(self, large_hg):
        partition = recursive_bisection(large_hg, k=8, seed=2)
        assert partition.k == 8
        assert len(set(partition.assignment)) == 8

    def test_rejects_non_power_of_two(self, medium_hg):
        with pytest.raises(PartitionError, match="power of two"):
            recursive_bisection(medium_hg, k=3)

    def test_rejects_too_few_modules(self):
        hg = Hypergraph([[0, 1]], num_modules=2)
        with pytest.raises(PartitionError):
            recursive_bisection(hg, k=4)

    def test_deterministic(self, medium_hg):
        a = recursive_bisection(medium_hg, k=4, seed=3)
        b = recursive_bisection(medium_hg, k=4, seed=3)
        assert a == b

    def test_roughly_balanced(self, large_hg):
        partition = recursive_bisection(large_hg, k=4, seed=4)
        sizes = partition.part_sizes()
        expected = large_hg.num_modules / 4
        assert all(0.5 * expected <= size <= 1.6 * expected
                   for size in sizes)

    def test_comparable_to_direct_kway(self, large_hg):
        """Neither strategy should dominate by a huge factor."""
        from repro.core import ml_quadrisection
        direct = ml_quadrisection(large_hg, seed=5).cut
        recursive = cut(large_hg, recursive_bisection(large_hg, k=4,
                                                      seed=5))
        assert recursive < 3 * direct
        assert direct < 3 * recursive

    def test_degenerate_tiny_subproblems(self):
        hg = Hypergraph([[i, (i + 1) % 8] for i in range(8)],
                        num_modules=8)
        partition = recursive_bisection(hg, k=8, seed=0)
        assert sorted(partition.part_sizes()) == [1] * 8
