"""Tests for the seeded RNG helpers."""

import random

import pytest

from repro.fm import native
from repro.rng import (child_seeds, choice_weighted, make_rng,
                       random_permutation, spawn, stable_seed)


class TestMakeRng:
    def test_int_seed_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_random_passthrough(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_none_gives_fresh_stream(self):
        # Not deterministic; just check it works and differs on repeats
        values = {make_rng(None).random() for _ in range(3)}
        assert len(values) >= 2


class TestChildSeeds:
    def test_position_stable(self):
        assert child_seeds(42, 10)[:3] == child_seeds(42, 3)

    def test_distinct(self):
        seeds = child_seeds(0, 100)
        assert len(set(seeds)) == 100

    def test_different_parents_differ(self):
        assert child_seeds(1, 5) != child_seeds(2, 5)

    def test_zero_count(self):
        assert child_seeds(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            child_seeds(1, -1)


#: Sizes the compiled permutation is held to ``shuffle`` at: the
#: smallest, each power of two up to 2**17 and its neighbours (where
#: the draw's bit length changes), and the golem3 stand-in at 0.1.
SIZES = sorted({0, 1, 2, 3, 10305}
               | {m for k in range(1, 18) for m in (2**k - 1, 2**k, 2**k + 1)})


def _shuffled(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return order


class TestPermutation:
    def test_is_permutation(self):
        perm = random_permutation(50, make_rng(3))
        assert sorted(perm) == list(range(50))

    def test_deterministic(self):
        assert random_permutation(20, make_rng(4)) == \
            random_permutation(20, make_rng(4))

    @pytest.mark.parametrize("loop", ["c", "py"])
    def test_is_shuffle_bit_for_bit(self, loop, monkeypatch):
        """Both paths give ``shuffle``'s order, as an ``array('i')``,
        and leave the generator where ``shuffle`` leaves it: the
        compiled one for 50 seeds at every size, the Python one (which
        is ``shuffle``) for a few."""
        sizes = SIZES
        if loop == "py":
            monkeypatch.setattr(native, "_module", None)
            sizes = [n for n in SIZES if n <= 1025]
        elif native.load() is None:
            pytest.skip("no C compiler for the level kernels")
        for seed in range(50 if loop == "c" else 5):
            ours, reference = random.Random(seed), random.Random(seed)
            for n in sizes:
                perm = random_permutation(n, ours)
                assert perm.typecode == "i"
                assert perm.tolist() == _shuffled(n, reference), (seed, n)
                assert ours.getstate() == reference.getstate(), (seed, n)
            assert ours.random() == reference.random()

    def test_a_subclass_draws_its_own_way(self, monkeypatch):
        """A subclass may replace the draws ``shuffle`` makes, so it
        takes ``shuffle`` itself, never the compiled rule."""

        class Floats(random.Random):
            # With random() replaced and getrandbits() not, shuffle
            # draws indices from random(), not from 32-bit outputs.
            def random(self):
                return super().random()

        class Refuses:
            def shuffle(self, perm, getrandbits):
                raise AssertionError("the compiled shuffle ran")

        monkeypatch.setattr(native, "_module", Refuses())
        for n in (2, 17, 1000):
            assert random_permutation(n, Floats(n)).tolist() == \
                _shuffled(n, Floats(n))
        assert random_permutation(1000, Floats(1)).tolist() != \
            _shuffled(1000, random.Random(1))


class TestSpawn:
    def test_independent_streams(self):
        parent = make_rng(5)
        a = spawn(parent)
        b = spawn(parent)
        assert a.random() != b.random()


class TestStableSeed:
    def test_known_value_pinned(self):
        """Cross-process stability: this value must never change
        (unlike built-in hash(), which is salted per process)."""
        assert stable_seed("0", "struct", "FM") == 5932822562323333867

    def test_distinct_labels_distinct_seeds(self):
        assert stable_seed("a") != stable_seed("b")
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_in_seed_range(self):
        assert 0 <= stable_seed("x", 42) < 2**63 - 1


class TestChoiceWeighted:
    def test_empty_returns_none(self):
        assert choice_weighted([], [], make_rng(0)) is None

    def test_respects_weights(self):
        rng = make_rng(1)
        picks = [choice_weighted([0, 1], [0.0, 1.0], rng)
                 for _ in range(20)]
        assert all(p == 1 for p in picks)
