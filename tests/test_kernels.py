"""The kernel layer: flat-view equivalence, pinned answers, oracle, pass.

Four contracts from DESIGN.md's kernel-layer section (§8):

1. **Reconstruction** — the kernel lists and the flat buffers of a
   ``Hypergraph`` (``active_csr``, what the compiled FM pass reads)
   describe exactly the same incidence as the tuple accessors
   ``pins(e)`` / ``nets(v)``.
2. **Pinned answers** — every exact engine configuration (FM and CLIP
   under each bucket policy, lookahead, ML_F, ML_C, V-cycles, k-way)
   returns the partition whose assignment digest was pinned while an
   in-tree reference kernel family still cross-checked the CSR kernels
   bit for bit, on the compiled pass and on the Python loop alike.
3. **Definitional oracle** — state init, incremental moves and the
   initial gain vector agree elementwise with :mod:`tests.oracle`,
   which recomputes side counts, spans, cut and FM gain straight from
   the hypergraph.
4. **Exact pass** — the compiled pass (two-pin fast path included)
   and the Python loop make the same moves with the same best prefix,
   and both of the compiled pass's rollback directions (undo the tail,
   replay the prefix from the pass-start copies) restore the same state
   as undoing each move with ``PartitionState.move``.
"""

import hashlib
import random

import pytest

from repro import MLConfig, build_hierarchy, ml_bipartition
from repro.core.quadrisection import ml_kway
from repro.core.vcycle import ml_vcycle
from repro.fm import (FMConfig, clip_bipartition, fm_bipartition,
                      kway_partition)
from repro.fm import engine, native
from repro.fm.engine import _initial_gains
from repro.hypergraph import (Hypergraph, grid_circuit, hierarchical_circuit,
                              load_circuit, random_hypergraph)
from repro.partition import Partition, PartitionState, random_partition
from repro.solvers import single_run

from . import oracle
from .loops import compiled_available, each_loop, state_lists, watch_passes


def _sample_circuits():
    """Small and mid-size netlists spanning the generator family, plus
    one coarsened level of an ML hierarchy, with merged net weights and
    clustered areas."""
    hier = hierarchical_circuit(600, 700, seed=3, name="hier600")
    coarse = build_hierarchy(hier, MLConfig(engine="clip"),
                             seed=7).netlists[1]
    assert max(coarse.weights_list) > 1 and max(coarse.areas_list) > 1
    return [
        random_hypergraph(60, 90, seed=11, name="rand60"),
        random_hypergraph(200, 260, max_net_size=9, seed=5, name="rand200"),
        hierarchical_circuit(300, 360, seed=2024, name="hier300"),
        load_circuit("struct", scale=0.2, seed=3),
        coarse,
    ]


def digest(partition) -> str:
    """Short SHA-256 of an assignment vector."""
    return hashlib.sha256(bytes(partition.assignment)).hexdigest()[:16]


# ---------------------------------------------------------------------------
# 1. Reconstruction: kernel lists and flat buffers == tuple accessors.
# ---------------------------------------------------------------------------


class TestFlatViews:
    def test_pins_reconstruction(self):
        for hg in _sample_circuits():
            xpins, pins_flat = hg.active_csr(None)[:2]
            for e in hg.all_nets():
                expected = hg.pins(e)
                assert hg.net_pins[e] == expected
                assert tuple(pins_flat[xpins[e]:xpins[e + 1]]) == expected

    def test_nets_reconstruction(self):
        for hg in _sample_circuits():
            xnets, nets_flat = hg.active_csr(None)[2:4]
            for v in hg.modules():
                expected = hg.nets(v)
                assert hg.module_nets[v] == expected
                assert tuple(nets_flat[xnets[v]:xnets[v + 1]]) == expected

    def test_scalar_arrays_match_accessors(self):
        for hg in _sample_circuits():
            xpins, _, _, _, weights, areas = hg.active_csr(None)
            assert weights.tolist() == hg.net_weights()
            assert [b - a for a, b in zip(xpins, xpins[1:])] == \
                [hg.net_size(e) for e in hg.all_nets()]
            assert areas.tolist() == hg.areas()

    def test_kernel_lists_match_accessors(self):
        for hg in _sample_circuits():
            sizes = hg.sizes_list
            assert sizes == [len(hg.pins(e)) for e in hg.all_nets()]
            assert hg.weights_list == hg.net_weights()
            assert hg.areas_list == hg.areas()
            incidence = [[] for _ in hg.modules()]
            for e in hg.all_nets():
                for v in hg.pins(e):
                    incidence[v].append(e)
            assert [list(nets) for nets in hg.module_nets] == incidence

    def test_tuple_views_are_shared(self):
        # The accessors return the kernel layout's own tuples — no copy.
        circuits = _sample_circuits()
        for hg in (circuits[0], circuits[-1]):
            for e in hg.all_nets():
                assert hg.net_pins[e] is hg.pins(e)
            for v in hg.modules():
                assert hg.module_nets[v] is hg.nets(v)

    def test_counters(self):
        for hg in _sample_circuits():
            xpins, pins, xinc, inc, _, _ = hg.active_csr(None)
            assert len(xinc) - 1 == hg.num_modules
            assert len(xpins) - 1 == hg.num_nets
            assert xpins[-1] == xinc[-1] == hg.num_pins
            assert len(pins) == hg.num_pins
            assert len(inc) == hg.num_pins
            assert len(hg.net_pins) == hg.num_nets
            assert len(hg.module_nets) == hg.num_modules

    def test_view_is_cached(self):
        hg = hierarchical_circuit(50, 60, seed=1)
        assert hg.active_csr(None) is hg.active_csr(None)
        assert hg.net_pins is hg.net_pins
        assert hg.module_nets is hg.module_nets
        assert hg.sizes_list is hg.sizes_list

    def test_active_nets_threshold(self):
        small = random_hypergraph(80, 120, max_net_size=7, seed=9)
        for hg in [small] + _sample_circuits():
            for limit in (2, 3, 200, None):
                active = hg.active_nets(limit)
                expected = tuple(
                    e for e in hg.all_nets()
                    if limit is None or hg.net_size(e) <= limit)
                assert active == expected
                # Cached: same tuple object on every call.
                assert hg.active_nets(limit) is active

    def test_max_weighted_degree(self):
        for hg in _sample_circuits():
            for limit in (3, 200, None):
                expected = max(
                    sum(hg.net_weight(e) for e in hg.nets(v)
                        if limit is None or hg.net_size(e) <= limit)
                    for v in hg.modules())
                assert hg.max_weighted_degree(limit) == expected

    def test_active_incidence_filters(self):
        small = random_hypergraph(80, 120, max_net_size=7, seed=9)
        for hg in [small] + _sample_circuits():
            for limit in (3, 200, None):
                incidence = hg.active_incidence(limit)
                for v in hg.modules():
                    expected = tuple(
                        e for e in hg.nets(v)
                        if limit is None or hg.net_size(e) <= limit)
                    assert tuple(incidence[v]) == expected
            # All-active thresholds reuse the shared incidence outright.
            assert hg.active_incidence(None) is hg.module_nets
            # The flat buffers list the same filtered incidence.
            for limit in (3, None):
                xinc, inc = hg.active_csr(limit)[2:4]
                assert [tuple(inc[a:b]) for a, b in zip(xinc, xinc[1:])] \
                    == [tuple(nets) for nets in hg.active_incidence(limit)]


# ---------------------------------------------------------------------------
# 2. Pinned answers on hier300: (cut, assignment digest) per config/seed.
# ---------------------------------------------------------------------------

#: Exact engines.  Recorded from the last code that still carried the
#: accessor-walking reference kernels, where the reference and CSR
#: families returned identical partitions on every entry below.
EXACT_PINS = {
    "fm/lifo": {0: (20, "3c4733a81854eaff"), 1: (20, "58fc748ddd2bf930"),
                2024: (51, "e213b43da1be5eb3")},
    "fm/fifo": {0: (44, "423d5117011f623b"), 1: (21, "c392437a6c54a1a9"),
                2024: (56, "4ee3f0e8ba862b5e")},
    "fm/random": {0: (51, "4d22d82200295118"),
                  1: (23, "29bedf605ad39815"),
                  2024: (55, "a4f275b4ed158b69")},
    "clip/lifo": {0: (25, "bd5087fcce63a7c0"),
                  1: (40, "d79c5b8fa369a393"),
                  2024: (22, "d97c8731733b1266")},
    "clip/fifo": {0: (35, "09e71edc5c959b13"),
                  1: (33, "84957c9763fdf007"),
                  2024: (25, "4b7951db63c0ff21")},
    "clip/random": {0: (20, "d8945a347f2e828c"),
                    1: (21, "a833af06e63dd003"),
                    2024: (39, "6e5012a033152ddf")},
    "fm/lookahead2": {0: (35, "d5904387bf734c75"),
                      1: (28, "1b884c8987803e5b"),
                      2024: (44, "a0c3424ec9c89605")},
    "mlf": {0: (21, "4f1cfb3f8cb16de8"), 1: (21, "5969165245bb0849"),
            2024: (20, "b4d2f2b0c9a688d5")},
    "mlc": {0: (22, "3a60c4b873b27883"), 1: (20, "d9e06c43bee1e333"),
            2024: (20, "be36542f4e4a27c1")},
    "vcycle": {0: (20, "92a5a108fd049b1e"), 1: (20, "d9e06c43bee1e333"),
               2024: (20, "be36542f4e4a27c1")},
    "kway4": {0: (60, "8d717d07826317a8"), 1: (44, "9d765da061bfb34f"),
              2024: (51, "252dc756be151ab4")},
    # Pinned before ml_kway ran through ml.py's shared level loops.
    "kway4/fixed": {0: (82, "fdb048ecf11b2633"),
                    1: (75, "b8e387fb51c8e64a"),
                    2024: (79, "25639e27cb0f4d7b")},
    "kwayflat4": {0: (69, "bdff9af8f2c107f9"),
                  1: (78, "b5d3b3320d3e997f"),
                  2024: (80, "d2128247673a61f1")},
    "solver/mlc": {0: (20, "0c20ebfd21c347a0"),
                   1: (20, "d62c18e8e41446f6"),
                   2024: (21, "70dde644b5e26608")},
    "solver/mlf": {0: (25, "01ee9d6cce5dd3a7"),
                   1: (20, "b4de03a0601a7c75"),
                   2024: (20, "fbf1cdd0db0837aa")},
    "solver/lsmc": {0: (20, "3c4733a81854eaff"),
                    1: (20, "58fc748ddd2bf930"),
                    2024: (42, "1dc7397d86cd8297")},
    "solver/spectral": {0: (20, "5e21c85a8b190f0c"),
                        1: (20, "5e21c85a8b190f0c"),
                        2024: (20, "cd08a43c182b9624")},
    "solver/mlc-v2": {0: (20, "0c20ebfd21c347a0"),
                      1: (20, "d62c18e8e41446f6"),
                      2024: (21, "70dde644b5e26608")},
}

def _exact_runs():
    """Config name -> seeded runner, for every :data:`EXACT_PINS` key."""
    runs = {}
    for policy in ("lifo", "fifo", "random"):
        runs[f"fm/{policy}"] = (lambda hg, s, p=policy: fm_bipartition(
            hg, config=FMConfig(bucket_policy=p), seed=s))
        runs[f"clip/{policy}"] = (lambda hg, s, p=policy: fm_bipartition(
            hg, config=FMConfig(clip=True, bucket_policy=p), seed=s))
    runs["fm/lookahead2"] = lambda hg, s: fm_bipartition(
        hg, config=FMConfig(lookahead=2), seed=s)
    runs["mlf"] = lambda hg, s: ml_bipartition(
        hg, config=MLConfig(engine="fm"), seed=s)
    runs["mlc"] = lambda hg, s: ml_bipartition(
        hg, config=MLConfig(engine="clip"), seed=s)
    runs["vcycle"] = lambda hg, s: ml_vcycle(
        hg, cycles=2, config=MLConfig(engine="clip"), seed=s)
    runs["kway4"] = lambda hg, s: ml_kway(
        hg, k=4, config=MLConfig(engine="fm", coarsening_threshold=100),
        seed=s)
    # Modules 0-19 pre-assigned to part ``v % 4``.
    runs["kway4/fixed"] = lambda hg, s: ml_kway(
        hg, k=4, config=MLConfig(engine="fm", coarsening_threshold=100),
        fixed=[v % 4 if v < 20 else -1 for v in range(hg.num_modules)],
        seed=s)
    runs["kwayflat4"] = lambda hg, s: kway_partition(hg, k=4, seed=s)
    for alg in ("mlc", "mlf", "lsmc", "spectral"):
        runs[f"solver/{alg}"] = (lambda hg, s, a=alg: single_run(
            a, hg, seed=s))
    runs["solver/mlc-v2"] = lambda hg, s: single_run(
        "mlc", hg, seed=s, vcycles=2)
    return runs


def _check_pins(hg, pins, runs, names):
    for loop in each_loop():
        for name in names:
            for seed, (cut, want) in pins[name].items():
                result = runs[name](hg, seed)
                assert (result.cut, digest(result.partition)) == \
                    (cut, want), f"{name} seed {seed} ({loop} loop)"


class TestGoldenCuts:
    @pytest.fixture(scope="class")
    def medium(self):
        return hierarchical_circuit(300, 360, seed=2024, name="hier300")

    def test_fm_identical_across_modes(self, medium):
        _check_pins(medium, EXACT_PINS, _exact_runs(), ["fm/lifo"])
        # The per-pass cut trajectory, pinned alongside the digests.
        pass_cuts = {0: [67, 61, 48, 43, 40, 37, 29, 20, 20],
                     1: [62, 48, 31, 26, 20, 20], 2024: [60, 53, 51, 51]}
        for loop in each_loop():
            for seed, want in pass_cuts.items():
                assert fm_bipartition(medium, seed=seed).pass_cuts == want, \
                    loop

    def test_clip_identical_across_modes(self, medium):
        _check_pins(medium, EXACT_PINS, _exact_runs(), ["clip/lifo"])
        for _ in each_loop():
            assert clip_bipartition(medium, seed=2024).cut == 22

    def test_ml_identical_across_modes(self, medium):
        _check_pins(medium, EXACT_PINS, _exact_runs(),
                    ["mlf", "mlc", "solver/mlc", "solver/mlf"])

    def test_fm_policies_identical_across_modes(self, medium):
        # FIFO and random bucket policies and lookahead always run
        # through the Python loop, never the compiled pass.
        _check_pins(medium, EXACT_PINS, _exact_runs(),
                    ["fm/fifo", "fm/random", "clip/fifo", "clip/random",
                     "fm/lookahead2"])

    def test_extensions_pinned(self, medium):
        _check_pins(medium, EXACT_PINS, _exact_runs(),
                    ["vcycle", "kway4", "kway4/fixed", "kwayflat4",
                     "solver/lsmc", "solver/spectral", "solver/mlc-v2"])

    def test_golden_cuts_pinned(self, medium):
        # Absolute regression pins for the canonical 300-module circuit.
        for _ in each_loop():
            assert fm_bipartition(medium, seed=2024).cut == 51
            assert clip_bipartition(medium, seed=2024).cut == 22
            assert ml_bipartition(medium, config=MLConfig(engine="clip"),
                                  seed=2024).cut == 20


#: Seed 7 over the mini suite: ML_C at the pytest bench scale (reference
#: and CSR families agreed here too).
SUITE_MLC_PINS = {
    ("avqsmall", 0.05): (68, "9970722f846f4a66"),
    ("balu", 0.05): (3, "4536e833c4526d2c"),
    ("biomed", 0.05): (15, "eef04e7b5094f011"),
    ("golem3", 0.05): (299, "719c3ea6d9d45b0d"),
    ("primary1", 0.05): (3, "d2b3d9bf93486e97"),
    ("primary2", 0.05): (7, "086e5e1f9f1dee1d"),
    ("s9234", 0.05): (14, "96b30fd7a8f59b26"),
    ("struct", 0.05): (4, "8d69b6ed5dbaa09a"),
}
@pytest.mark.parametrize("engine,pins", [("clip", SUITE_MLC_PINS)])
def test_suite_digests_pinned(engine, pins):
    for loop in each_loop():
        for (name, scale), (cut, want) in pins.items():
            hg = load_circuit(name, scale=scale, seed=0)
            result = ml_bipartition(hg, config=MLConfig(engine=engine),
                                    seed=7)
            assert (result.cut, digest(result.partition)) == (cut, want), (
                name, scale, loop)


# ---------------------------------------------------------------------------
# 3. Definitional oracle: state init, moves and gains agree with the
#    hypergraph's own definitions.
# ---------------------------------------------------------------------------


def _state_view(state):
    return dict(state_lists(state), part_area=list(state.part_area))


class TestCrossModeProperties:
    """The scalar kernels against :mod:`tests.oracle` on ~50 random
    small hypergraphs (seeded ``random.Random``, no hypothesis
    dependency)."""

    CASES = 50

    def _random_cases(self):
        rng = random.Random(0xC0FFEE)
        for case in range(self.CASES):
            n = rng.randrange(4, 80)
            m = rng.randrange(2, 2 * n)
            max_net = rng.randrange(2, 9)
            hg = random_hypergraph(n, m, max_net_size=max_net,
                                   seed=rng.randrange(1 << 30),
                                   name=f"prop{case}")
            part = random_partition(hg, seed=rng.randrange(1 << 30))
            yield hg, part

    def test_state_init_identical(self):
        for hg, part in self._random_cases():
            want = oracle.state_view(hg, part.assignment, 2)
            assert _state_view(PartitionState(hg, part)) == want, hg.name

    def test_moves_track_oracle(self):
        # Incremental bookkeeping under random single-module moves
        # (k = 2 and k = 3), checked after every move.
        rng = random.Random(77)
        for hg, part in list(self._random_cases())[:20]:
            for k in (2, 3):
                start = random_partition(hg, k=k,
                                         seed=rng.randrange(1 << 30))
                state = PartitionState(hg, start)
                for _ in range(15):
                    v = rng.randrange(hg.num_modules)
                    state.move(v, rng.randrange(k))
                    want = oracle.state_view(hg, state.part_of, k)
                    got = _state_view(state)
                    assert got["part_area"] == pytest.approx(
                        want.pop("part_area"))
                    got.pop("part_area")
                    assert got == want, (hg.name, k)

    def test_initial_gain_vector_identical(self):
        for hg, part in self._random_cases():
            want = oracle.fm_gains(hg, part.assignment)
            assert _initial_gains(PartitionState(hg, part)) == want, \
                hg.name

    def test_initial_gain_vector_identical_restricted_nets(self):
        # The active-net path (nets above max_net_size excluded) is a
        # separate branch; exercise it too.
        rng = random.Random(1234)
        for _ in range(10):
            hg = random_hypergraph(60, 120, max_net_size=9,
                                   seed=rng.randrange(1 << 30))
            part = random_partition(hg, seed=rng.randrange(1 << 30))
            active = [e for e in hg.all_nets() if hg.net_size(e) <= 4]
            state = PartitionState(hg, part, active_nets=active)
            assert _state_view(state) == oracle.state_view(
                hg, part.assignment, 2, active)
            assert _initial_gains(state) == oracle.fm_gains(
                hg, part.assignment, active)


# ---------------------------------------------------------------------------
# 4. Exact pass: compiled pass vs Python loop, and both rollback
#    directions.
# ---------------------------------------------------------------------------


def _dressed(hg, seed):
    """``hg`` with net weights 1..5 and fractional module areas."""
    rng = random.Random(seed)
    return Hypergraph(
        [hg.pins(e) for e in range(hg.num_nets)],
        num_modules=hg.num_modules,
        areas=[rng.choice((0.1, 0.3, 0.7, 1.25, 2.2))
               for _ in range(hg.num_modules)],
        net_weights=[rng.randint(1, 5) for _ in range(hg.num_nets)],
        name=hg.name)


def _exact_pass_cases():
    """(hypergraph, config, fixed) over all-two-pin, no-two-pin and
    mixed netlists; weighted nets, fractional areas, nets above
    ``max_net_size`` and fixed modules all appear."""
    grid = grid_circuit(9, 11, seed=4)
    wide = random_hypergraph(90, 80, min_net_size=3, max_net_size=7,
                             seed=8, name="wide")
    mixed = random_hypergraph(120, 150, max_net_size=6, seed=9,
                              name="mixed")
    hier = hierarchical_circuit(200, 240, seed=31, name="hier200")
    cases = []
    for i, hg in enumerate((grid, wide, mixed, hier)):
        for dressed in (False, True):
            g = _dressed(hg, i) if dressed else hg
            rng = random.Random(i)
            fixed = [rng.random() < 0.1 for _ in range(g.num_modules)]
            for clip in (False, True):
                cases.append((g, FMConfig(clip=clip), None))
                cases.append((g, FMConfig(clip=clip, max_net_size=4),
                              fixed))
    return cases


def _clone(state):
    twin = PartitionState.__new__(PartitionState)
    for name in PartitionState.__slots__:
        setattr(twin, name, getattr(state, name))
    twin.part_of = list(state.part_of)
    twin.part_area = list(state.part_area)
    twin.counts = [list(c) for c in state.counts]
    twin.spans = list(state.spans)
    return twin


def _exact_view(state):
    """Everything rollback restores, with ``part_area`` bit for bit."""
    return dict(_state_view(state), part_of=list(state.part_of),
                part_area=[a.hex() for a in state.part_area])


def _check_oracle(state, active):
    hg = state.hg
    want = oracle.state_view(hg, state.part_of, 2, active)
    assert list(state.part_area) == pytest.approx(want.pop("part_area"))
    assert state_lists(state) == want


def _traced_passes(monkeypatch, hg, config, fixed, loop):
    """Run FM once on ``loop`` (``"c"`` or ``"py"``), recording per
    pass (moves, best_index, state after rollback)."""
    passes = []
    compiled = set()

    def record(state, moves, best_index):
        compiled.add(not isinstance(state.part_of, list))
        passes.append((moves, best_index, _exact_view(state)))
        _check_oracle(state, state.active_nets())

    with monkeypatch.context() as patch:
        watch_passes(patch, record)
        if loop != "c":
            patch.setattr(native, "_module", None)
        initial = random_partition(hg, seed=hg.num_modules)
        result = fm_bipartition(hg, initial=initial, config=config, seed=3,
                                fixed=fixed)
    assert passes and len(passes) == result.passes
    assert compiled == {loop == "c"}
    return passes, result


def test_inlined_and_generic_loops_agree(monkeypatch):
    # The compiled pass (when it builds) against the Python loop: same
    # moves with the same gains, best prefix and post-rollback state on
    # every pass.
    for hg, config, fixed in _exact_pass_cases():
        want, r_want = _traced_passes(monkeypatch, hg, config, fixed, "py")
        assert any(moves for moves, _, _ in want), hg.name
        if not compiled_available():
            continue
        got, r_got = _traced_passes(monkeypatch, hg, config, fixed, "c")
        assert got == want, (hg.name, config)
        assert (r_got.cut, r_got.partition.assignment) == \
            (r_want.cut, r_want.partition.assignment)


@pytest.mark.skipif(not compiled_available(),
                    reason="no C compiler for the compiled pass")
def test_rollback_directions_agree(monkeypatch):
    # The compiled pass rolls back from the shorter side of its best
    # prefix: it undoes the tail, or restores its pass-start copies and
    # replays the prefix.  Either must leave the state that undoing
    # each tail move with PartitionState.move leaves.
    c_pass = engine._c_pass
    before = []
    checked = set()

    def snapshot(kernel, state, *rest):
        before.append(_clone(state))
        return c_pass(kernel, state, *rest)

    def check(state, moves, best_index):
        ref = before.pop()
        for v, original, _ in moves:
            ref.move(v, 1 - original)
        for v, original, _ in reversed(moves[best_index:]):
            ref.move(v, original)
        assert _exact_view(state) == _exact_view(ref), (best_index, moves)
        n = len(moves)
        checked.add((best_index < n - best_index, best_index in (0, n)))

    monkeypatch.setattr(engine, "_c_pass", snapshot)
    watch_passes(monkeypatch, check)
    for hg, config, fixed in _exact_pass_cases():
        initial = random_partition(hg, seed=hg.num_modules)
        fm_bipartition(hg, initial=initial, config=config, seed=3,
                       fixed=fixed)
    # A pass that keeps all its moves (nothing to roll back): its only
    # move puts the one free module beside its net's fixed pin.
    fm_bipartition(Hypergraph([[0, 1]], num_modules=2),
                   initial=Partition([0, 1], 2), seed=3,
                   fixed=[True, False])
    # Both directions ran, at the ends of a pass and inside it.
    assert checked == {(True, True), (True, False), (False, True),
                       (False, False)}
