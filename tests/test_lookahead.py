"""Tests for Krishnamurthy-style lookahead selection."""

import pytest

from repro.errors import ConfigError
from repro.fm import FMConfig, fm_bipartition
from repro.fm.engine import _lookahead_vector
from repro.hypergraph import Hypergraph, hierarchical_circuit
from repro.partition import (BalanceConstraint, Partition, PartitionState,
                             cut)
from repro.rng import child_seeds


class TestConfig:
    def test_default_off(self):
        assert FMConfig().lookahead == 1

    def test_bounds(self):
        with pytest.raises(ConfigError):
            FMConfig(lookahead=0)
        with pytest.raises(ConfigError):
            FMConfig(lookahead=9)

    def test_cl_la3_combination_valid(self):
        config = FMConfig(clip=True, lookahead=3)
        assert config.clip and config.lookahead == 3


class TestLookaheadVector:
    def test_positive_term(self):
        """Net {0,1} entirely in A with both free: moving 0 then 1
        uncuts into B -> +1 at level 2 for module 0."""
        hg = Hypergraph([[0, 1]], num_modules=2)
        state = PartitionState(hg, Partition([0, 0], 2))
        locked = [[0] * hg.num_nets, [0] * hg.num_nets]
        assert _lookahead_vector(state, locked, 0, depth=2) == (1,)

    def test_negative_term(self):
        """Net {0,1} with 1 free in B: moving 0 to B destroys the
        potential of 1 escaping to A -> -1 at level 2."""
        hg = Hypergraph([[0, 1]], num_modules=2)
        state = PartitionState(hg, Partition([0, 1], 2))
        locked = [[0] * hg.num_nets, [0] * hg.num_nets]
        assert _lookahead_vector(state, locked, 0, depth=2) == (-1,)

    def test_locked_pin_blocks_positive(self):
        """A locked A pin on the net makes it un-uncuttable."""
        hg = Hypergraph([[0, 1]], num_modules=2)
        state = PartitionState(hg, Partition([0, 0], 2))
        locked = [[0] * hg.num_nets, [0] * hg.num_nets]
        locked[0][0] = 1  # one of the A pins is locked
        assert _lookahead_vector(state, locked, 0, depth=2) == (0,)

    def test_depth_extends_vector(self):
        hg = Hypergraph([[0, 1, 2]], num_modules=3)
        state = PartitionState(hg, Partition([0, 0, 0], 2))
        locked = [[0] * hg.num_nets, [0] * hg.num_nets]
        # 3 free A pins: positive at level 3 only
        assert _lookahead_vector(state, locked, 0, depth=4) == (0, 1, 0)

    def test_weighted(self):
        hg = Hypergraph([[0, 1]], num_modules=2, net_weights=[5])
        state = PartitionState(hg, Partition([0, 0], 2))
        locked = [[0] * hg.num_nets, [0] * hg.num_nets]
        assert _lookahead_vector(state, locked, 0, depth=2) == (5,)


class TestLookaheadEngine:
    @pytest.mark.parametrize("clip", [False, True])
    def test_valid_solutions(self, medium_hg, clip):
        config = FMConfig(clip=clip, lookahead=3)
        result = fm_bipartition(medium_hg, config=config, seed=1)
        assert result.cut == cut(medium_hg, result.partition)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_deterministic(self, medium_hg):
        config = FMConfig(lookahead=2)
        assert fm_bipartition(medium_hg, config=config, seed=2).cut == \
            fm_bipartition(medium_hg, config=config, seed=2).cut

    def test_changes_trajectory(self, medium_hg):
        """Lookahead must actually alter selection on some seeds."""
        seeds = child_seeds(3, 6)
        plain = [fm_bipartition(medium_hg, seed=s).cut for s in seeds]
        ahead = [fm_bipartition(medium_hg, config=FMConfig(lookahead=3),
                                seed=s).cut for s in seeds]
        assert plain != ahead

    def test_cl_la3_helps_clip(self):
        """The Dutt-Deng phenomenon the paper cites: lookahead's impact
        'increases dramatically when using CLIP'."""
        hg = hierarchical_circuit(800, 960, seed=55)
        seeds = child_seeds(4, 6)
        clip = [fm_bipartition(hg, config=FMConfig(clip=True), seed=s).cut
                for s in seeds]
        cl_la3 = [fm_bipartition(hg, config=FMConfig(clip=True,
                                                     lookahead=3),
                                 seed=s).cut for s in seeds]
        assert sum(cl_la3) <= sum(clip)
