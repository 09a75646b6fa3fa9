"""Edge-case and stress tests for the iterative engines."""

from array import array

import pytest

from repro.errors import ConfigError, PartitionError, ReproError
from repro.fm import FMConfig, clip_bipartition, fm_bipartition, kway_partition
from repro.fm import engine
from repro.fm.buckets import LinkedListBuckets
from repro.hypergraph import Hypergraph, hierarchical_circuit
from repro.partition import (BalanceConstraint, Partition, PartitionState,
                             cut, random_partition)
from repro.rng import child_seeds

from . import oracle
from .loops import compiled_available, each_loop, state_lists, watch_passes


class TestDegenerateInstances:
    def test_two_modules_one_net(self):
        """The paper's slack max(A(v*), r*A) = 1 makes the one-sided
        solution feasible here, so FM legitimately reaches cut 0."""
        hg = Hypergraph([[0, 1]], num_modules=2)
        result = fm_bipartition(hg, seed=0)
        assert result.cut == 0
        constraint = BalanceConstraint.from_tolerance(hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(hg))

    def test_no_nets_at_all(self):
        hg = Hypergraph([], num_modules=6)
        result = fm_bipartition(hg, seed=0)
        assert result.cut == 0
        assert sorted(result.partition.part_sizes()) == [3, 3]

    def test_single_giant_net(self):
        hg = Hypergraph([list(range(12))], num_modules=12)
        result = fm_bipartition(hg, seed=0)
        assert result.cut == 1  # unavoidable

    def test_star_topology(self):
        """Hub module on every net; FM must still balance."""
        hg = Hypergraph([[0, i] for i in range(1, 13)], num_modules=13)
        result = fm_bipartition(hg, seed=1)
        constraint = BalanceConstraint.from_tolerance(hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(hg))
        # hub's side keeps its spokes: cut equals spokes on other side
        sizes = result.partition.part_sizes()
        assert result.cut == min(sizes[0], sizes[1], 12 - sizes[0] + 1,
                                 12 - sizes[1] + 1) or result.cut <= 7

    def test_disconnected_components(self):
        """Two cliques with no connection: optimal cut is zero."""
        nets = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        nets += [[i, j] for i in range(4, 8) for j in range(i + 1, 8)]
        hg = Hypergraph(nets, num_modules=8)
        best = min(fm_bipartition(hg, seed=s).cut
                   for s in child_seeds(0, 8))
        assert best == 0

    def test_parallel_nets_all_weight(self):
        hg = Hypergraph([[0, 1]] * 5 + [[1, 2]], num_modules=3)
        result = fm_bipartition(hg, seed=2)
        # separating 0 and 1 costs 5; the engine must prefer cutting {1,2}
        assert result.cut == 1


class TestExactPassDegenerate:
    """Degenerate inputs for the exact LIFO pass, on each loop: each run
    either succeeds with the state matching :mod:`tests.oracle` after
    every pass, or raises a named :class:`ReproError`."""

    @staticmethod
    def _run(monkeypatch, hg, initial=None, fixed=None):
        passes = []

        def checked(state, moves, best_index):
            passes.append(len(moves))
            want = oracle.state_view(hg, state.part_of, 2,
                                     state.active_nets())
            assert list(state.part_area) == pytest.approx(
                want.pop("part_area"))
            assert state_lists(state) == want

        watch_passes(monkeypatch, checked)
        results = []
        for _ in each_loop():
            for clip in (False, True):
                result = fm_bipartition(hg, initial=initial, seed=0,
                                        config=FMConfig(clip=clip),
                                        fixed=fixed)
                assert result.cut == oracle.cut(
                    hg, result.partition.assignment)
                results.append(result)
        assert len(passes) == sum(r.passes for r in results)
        assert [(r.cut, r.partition.assignment) for r in results[:2]] == \
            [(r.cut, r.partition.assignment) for r in results[-2:]]
        return results

    def test_all_modules_fixed_is_an_empty_pass(self, monkeypatch):
        hg = Hypergraph([[0, 1], [1, 2], [2, 3], [0, 3]], num_modules=4)
        start = Partition([0, 1, 1, 0], 2)
        for result in self._run(monkeypatch, hg, start, fixed=[True] * 4):
            assert (result.passes, result.total_moves) == (1, 0)
            assert result.partition.assignment == start.assignment

    def test_all_modules_fixed_infeasible_start_is_named(self, monkeypatch):
        hg = Hypergraph([[0, 1], [2, 3]], num_modules=4)
        with pytest.raises(ReproError):
            self._run(monkeypatch, hg, Partition([0, 0, 0, 0], 2),
                      fixed=[True] * 4)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_single_two_pin_net(self, monkeypatch, n):
        hg = Hypergraph([[n - 1, 0]], num_modules=n,
                        areas=[0.5 + 0.25 * v for v in range(n)],
                        net_weights=[7])
        for result in self._run(monkeypatch, hg):
            assert result.cut in (0, 7)

    def test_no_nets(self, monkeypatch):
        hg = Hypergraph([], num_modules=5, areas=[0.3, 1.1, 0.7, 2.0, 0.9])
        for result in self._run(monkeypatch, hg,
                                fixed=[False, True, False, False, True]):
            assert result.cut == 0

    def test_two_pin_bumps_reach_the_bucket_bound(self, monkeypatch):
        # Both modules start on one side, so each has gain -9 (the
        # bucket bound, weighted degree 9).  The first move lifts the
        # other module by 2w on each parallel net, to +9: the top
        # bucket for FM, and the top of CLIP's doubled range too.
        hg = Hypergraph([[0, 1]] * 3, num_modules=2, net_weights=[2, 3, 4])
        for result in self._run(monkeypatch, hg, Partition([0, 0], 2)):
            assert result.total_moves == 2 and result.cut == 0

    @pytest.mark.parametrize("start,gain", [([0, 0], 3), ([0, 1], -3)])
    def test_inconsistent_gains_trip_the_range_check(self, start, gain):
        # Gains that disagree with the state push a gain bump past the
        # bucket range; the loop names the fault as the compiled pass
        # does (next test).
        hg = Hypergraph([[0, 1]], num_modules=2, net_weights=[3])
        state = PartitionState(hg, Partition(start, 2))
        buckets = LinkedListBuckets(2, 3, "lifo")
        for v in range(2):
            buckets.insert(v, gain)
        with pytest.raises(PartitionError, match="outside bucket range"):
            engine._move_loop_csr(state, buckets, [gain, gain],
                                  [False, False], None, FMConfig(),
                                  [1.0, 1.0], 0.0, 2.0)

    @pytest.mark.skipif(not compiled_available(),
                        reason="no C compiler for the compiled pass")
    def test_compiled_pass_names_an_out_of_range_gain(self):
        # Counts that disagree with part_of (each side claims one pin
        # of the net) give both modules gain +3 at the top of the
        # range; the first move's two-pin relink by +6 then leaves it.
        hg = Hypergraph([[0, 1]], num_modules=2, net_weights=[3])
        state, _ = PartitionState.compiled(engine._compiled_pass(), hg,
                                           Partition([0, 0], 2), None)
        state.counts[0][0] = state.counts[1][0] = 1
        with pytest.raises(PartitionError, match="outside bucket range"):
            engine._c_pass(engine._compiled_pass(), state,
                           hg.active_csr(None), bytes(2),
                           array("i", [0] * 6), False, 3, 0.0, 2.0,
                           None)


class TestExtremeBalance:
    def test_very_loose_tolerance(self, medium_hg):
        config = FMConfig(tolerance=0.45)
        result = fm_bipartition(medium_hg, config=config, seed=0)
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.45)
        assert constraint.is_feasible(result.partition.part_areas(medium_hg))

    def test_zero_tolerance_unit_areas(self, medium_hg):
        """r = 0 leaves slack max(A(v*), 0) = 1, i.e. near-exact
        bisection for unit areas."""
        config = FMConfig(tolerance=0.0)
        result = fm_bipartition(medium_hg, config=config, seed=1)
        sizes = result.partition.part_sizes()
        assert abs(sizes[0] - sizes[1]) <= 2

    def test_huge_module(self):
        """One module as big as everything else combined."""
        nets = [[i, i + 1] for i in range(9)]
        areas = [9.0] + [1.0] * 9
        hg = Hypergraph(nets, num_modules=10, areas=areas)
        result = fm_bipartition(hg, seed=2)
        constraint = BalanceConstraint.from_tolerance(hg, 0.1)
        assert constraint.is_feasible(result.partition.part_areas(hg))


class TestClipEdgeCases:
    def test_clip_on_no_nets(self):
        hg = Hypergraph([], num_modules=4)
        assert clip_bipartition(hg, seed=0).cut == 0

    def test_clip_with_heavy_weights(self):
        """Weighted nets stress the doubled CLIP bucket range."""
        nets = [[i, (i + 1) % 10] for i in range(10)]
        weights = [1 + 7 * (i % 3) for i in range(10)]
        hg = Hypergraph(nets, num_modules=10, net_weights=weights)
        result = clip_bipartition(hg, seed=3)
        assert result.cut == cut(hg, result.partition)

    def test_clip_many_passes_bounded(self, medium_hg):
        result = clip_bipartition(medium_hg,
                                  config=FMConfig(clip=True, max_passes=3),
                                  seed=4)
        assert result.passes <= 3


class TestKWayEdgeCases:
    def test_k_equals_modules(self):
        hg = Hypergraph([[i, (i + 1) % 6] for i in range(6)],
                        num_modules=6)
        result = kway_partition(hg, k=6, objective="cut", seed=0,
                                config=FMConfig(tolerance=0.4))
        assert result.cut == cut(hg, result.partition)

    def test_k8_on_medium(self, medium_hg):
        result = kway_partition(medium_hg, k=8, seed=1)
        assert result.partition.k == 8
        constraint = BalanceConstraint.from_tolerance(medium_hg, 0.1, k=8)
        assert constraint.is_feasible(
            result.partition.part_areas(medium_hg))

    def test_weighted_areas_k4(self):
        areas = [1.0 + (i % 4) for i in range(64)]
        nets = [[i, (i + 1) % 64, (i + 7) % 64] for i in range(64)]
        hg = Hypergraph(nets, num_modules=64, areas=areas)
        result = kway_partition(hg, k=4, seed=2)
        constraint = BalanceConstraint.from_tolerance(hg, 0.1, k=4)
        assert constraint.is_feasible(result.partition.part_areas(hg))


class TestRefinementContracts:
    def test_fm_idempotent_on_own_output(self, medium_hg):
        """Refining FM's output again never increases the cut."""
        first = fm_bipartition(medium_hg, seed=5)
        second = fm_bipartition(medium_hg, initial=first.partition, seed=6)
        assert second.cut <= first.cut

    def test_seed_independence_of_instance(self):
        """Different seeds explore different solutions."""
        hg = hierarchical_circuit(400, 480, seed=91)
        cuts = {fm_bipartition(hg, seed=s).cut for s in child_seeds(0, 8)}
        assert len(cuts) > 1

    def test_initial_partition_not_mutated(self, medium_hg):
        initial = random_partition(medium_hg, seed=7)
        snapshot = list(initial.assignment)
        fm_bipartition(medium_hg, initial=initial, seed=7)
        assert initial.assignment == snapshot

    def test_max_net_size_affects_internal_only(self):
        """Shrinking max_net_size changes what FM optimises but the
        reported cut always covers the whole netlist."""
        hg = hierarchical_circuit(200, 240, seed=92)
        tight = fm_bipartition(hg, config=FMConfig(max_net_size=3),
                               seed=8)
        assert tight.cut == cut(hg, tight.partition)
        assert tight.internal_cut <= tight.cut
