"""The compiled level pipeline against its Python references.

Match, Induce and the partition state's construction sweep run
compiled when the kernel module loads (:mod:`repro.fm.native`) and in
Python otherwise (:func:`tests.loops.each_loop` runs a block both
ways).  Both must agree bit for bit:

* whole coarsening hierarchies — every level's clustering, pins,
  weights and the bits of its areas;
* the recorder's ``match`` events;
* a seeded hypothesis fuzz of the three entry points on netlists with
  fractional areas, weights 1-5, nets above 10 and above 200 pins,
  ``restrict`` labels, ratios in (0, 1] and both scored schemes;
* the named error for net weights the gain buckets cannot hold, raised
  before any bucket is allocated.
"""

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MLConfig, build_hierarchy, ml_bipartition
from repro.cli import main
from repro.clustering import Clustering, induce, match
from repro.errors import HypergraphError, PartitionError
from repro.fm import FMConfig, engine, fm_bipartition, kway_partition
from repro.hypergraph import Hypergraph, hierarchical_circuit, load_circuit
from repro.obs import read_record, recording
from repro.partition import PartitionState, random_partition

from .loops import compiled_available, each_loop

needs_cc = pytest.mark.skipif(not compiled_available(),
                              reason="no C compiler for the level kernels")

AREAS = (0.1, 0.3, 0.7, 1.25, 2.2)


def _dressed(hg, seed):
    """``hg`` with net weights 1..5 and fractional module areas."""
    rng = random.Random(seed)
    return Hypergraph(
        [hg.pins(e) for e in range(hg.num_nets)],
        num_modules=hg.num_modules,
        areas=[rng.choice(AREAS) for _ in range(hg.num_modules)],
        net_weights=[rng.randint(1, 5) for _ in range(hg.num_nets)],
        name=hg.name)


def _level(hg):
    """Everything a coarse netlist is: its flat arrays byte for byte,
    and its cached area totals as float bits."""
    return ([(a.typecode, a.tobytes()) for a in hg.flat],
            hg.total_area.hex(), hg.max_area.hex())


def _hierarchy(hg, config, seed):
    hierarchy = build_hierarchy(hg, config, seed=seed)
    return ([c.cluster_of for c in hierarchy.clusterings],
            [_level(level) for level in hierarchy.netlists])


def _both(run):
    return {loop: run() for loop in each_loop()}


@needs_cc
@pytest.mark.parametrize("scheme", ["conn", "heavy"])
@pytest.mark.parametrize("ratio", [0.5, 1.0])
def test_hierarchy_identical_on_both_paths(scheme, ratio):
    netlists = [hierarchical_circuit(300, 360, seed=2024, name="hier300"),
                _dressed(load_circuit("struct", scale=0.2, seed=3), 4),
                load_circuit("golem3", scale=0.03, seed=0)]
    config = MLConfig(engine="clip", matching_scheme=scheme,
                      matching_ratio=ratio)
    for hg in netlists:
        got = _both(lambda: _hierarchy(hg, config, seed=7))
        c_clusters, c_levels = got["c"]
        py_clusters, py_levels = got["py"]
        assert len(c_clusters) > 2, hg.name  # really coarsened
        assert c_clusters == py_clusters, hg.name
        assert c_levels == py_levels, hg.name


@needs_cc
def test_restricted_matching_identical():
    hg = _dressed(hierarchical_circuit(300, 360, seed=2024), 1)
    labels = ml_bipartition(hg, seed=1).partition.assignment
    for scheme in ("conn", "heavy", "random"):
        for ratio in (0.3, 1.0):
            def run():
                rng = random.Random(4)
                clustering = match(hg, ratio=ratio, scheme=scheme, rng=rng,
                                   restrict=labels)
                return clustering.cluster_of, rng.getstate()
            got = _both(run)
            assert got["c"] == got["py"], (scheme, ratio)
            groups = {}
            for v, c in enumerate(got["c"][0]):
                groups.setdefault(c, []).append(labels[v])
            assert all(len(set(g)) == 1 for g in groups.values())


@needs_cc
def test_recorded_match_events_identical(tmp_path):
    hg = load_circuit("golem3", scale=0.03, seed=0)
    recordings = {}
    for loop in each_loop():
        path = tmp_path / f"{loop}.jsonl"
        with recording(str(path)):
            ml_bipartition(hg, seed=3)
        recordings[loop] = path.read_bytes()
        assert sum(e["t"] == "match" for e in read_record(path)) > 2
    assert recordings["c"] == recordings["py"]


def test_flat_netlist_pickles_its_arrays():
    hg = hierarchical_circuit(600, 700, seed=3)
    levels = _both(lambda: build_hierarchy(hg, MLConfig(), seed=7).netlists)
    for loop, netlists in levels.items():
        for level in netlists[1:]:
            fresh = pickle.dumps(level)
            copy = pickle.loads(fresh)
            assert copy == level and hash(copy) == hash(level)
            assert _level(copy) == _level(level)
            level.module_nets, level.active_csr(200)
            # Its views and caches exist, and pickle to nothing.
            assert type(level) is Hypergraph
            assert pickle.dumps(level) == fresh, loop
    if "c" in levels:
        # The same netlists whichever layout defines them.
        assert levels["c"] == levels["py"]


# ---------------------------------------------------------------------------
# Differential fuzz of the three entry points.
# ---------------------------------------------------------------------------


@st.composite
def netlists(draw):
    """A netlist of up to 260 modules with fractional areas, weights
    1-5, and a mix of small nets, nets above 10 pins and (when there
    are modules enough) nets above 200 pins."""
    n = draw(st.integers(2, 260))
    sizes = st.one_of(st.integers(2, min(n, 6)), st.integers(2, min(n, 20)),
                      st.integers(2, n))
    nets = []
    for size in draw(st.lists(sizes, max_size=40)):
        nets.append(draw(st.lists(st.integers(0, n - 1), min_size=size,
                                  max_size=size, unique=True)))
    if n > 201 and draw(st.booleans()):
        nets.append(list(range(draw(st.integers(201, n)))))
    areas = draw(st.lists(st.sampled_from(AREAS) | st.floats(0.01, 50),
                          min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(nets),
                            max_size=len(nets)))
    return Hypergraph(nets, num_modules=n, areas=areas,
                      net_weights=weights)


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


@needs_cc
@FUZZ
@given(hg=netlists(), scheme=st.sampled_from(["conn", "heavy"]),
       ratio=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32),
       labels=st.none() | st.integers(1, 3),
       max_conn=st.sampled_from([2, 10, 300]))
def test_match_matches_python(hg, scheme, ratio, seed, labels, max_conn):
    restrict = None
    if labels is not None:
        rng = random.Random(seed)
        restrict = [rng.randrange(labels) for _ in hg.modules()]

    def run():
        clustering = match(hg, ratio=ratio, scheme=scheme, seed=seed,
                           restrict=restrict, max_conn_net_size=max_conn)
        return clustering.cluster_of, clustering.num_clusters
    got = _both(run)
    assert got["c"] == got["py"]


@needs_cc
@FUZZ
@given(hg=netlists(), seed=st.integers(0, 2 ** 32),
       ratio=st.floats(0.01, 1.0))
def test_induce_matches_python(hg, seed, ratio):
    clustering = match(hg, ratio=ratio, seed=seed)
    got = _both(lambda: induce(hg, clustering))
    assert _level(got["c"]) == _level(got["py"])
    assert got["c"].net_pins == got["py"].net_pins
    assert got["c"].sizes_list == got["py"].sizes_list
    assert got["c"].active_nets(10) == got["py"].active_nets(10)


@needs_cc
@FUZZ
@given(hg=netlists(), seed=st.integers(0, 2 ** 32),
       threshold=st.sampled_from([None, 3, 10, 200]))
def test_state_sweep_matches_python(hg, seed, threshold):
    part = random_partition(hg, seed=seed)
    reference = PartitionState(hg, part,
                               active_nets=hg.active_nets(threshold))
    state, bound = PartitionState.compiled(engine._compiled_pass(), hg,
                                           part, threshold)
    assert bound == hg.max_weighted_degree(threshold)
    assert state.active == reference.active
    assert state.active_nets() == reference.active_nets()
    # The compiled state moves against the netlist's flat arrays, the
    # Python one against its list views.
    for v in [None] + list(range(0, hg.num_modules, 7)):
        if v is not None:
            for each in (state, reference):
                each.move(v, 1 - each.part_of[v])
        assert [list(c) for c in state.counts] == reference.counts
        assert list(state.spans) == reference.spans
        assert [a.hex() for a in state.part_area] == \
            [a.hex() for a in reference.part_area]
        assert (state.cut_weight, state.soed_weight) == \
            (reference.cut_weight, reference.soed_weight)


# ---------------------------------------------------------------------------
# Net weights the gain buckets cannot hold.
# ---------------------------------------------------------------------------


def _heavy_netlist():
    """Four nets, one of weight 2**31: every gain bound it gives needs
    more than a C int's worth of buckets."""
    return Hypergraph([[0, 1], [1, 2], [2, 3], [3, 4]], num_modules=5,
                      net_weights=[2 ** 31, 1, 1, 1])


def _no_buckets(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bucket array was allocated")
    monkeypatch.setattr(engine, "make_buckets", refuse)
    monkeypatch.setattr(engine, "_c_pass", refuse)


@pytest.mark.parametrize("run", [
    lambda hg: fm_bipartition(hg, seed=1),
    lambda hg: fm_bipartition(hg, config=FMConfig(clip=True), seed=1),
    lambda hg: ml_bipartition(hg, seed=1),
    lambda hg: kway_partition(hg, k=3, seed=1),
], ids=["fm", "clip", "ml", "kway"])
def test_gain_bound_beyond_int_is_named(run, monkeypatch):
    _no_buckets(monkeypatch)
    for loop in each_loop():
        with pytest.raises(PartitionError, match="gain bound"):
            run(_heavy_netlist())


def test_merged_weight_beyond_int_is_named(monkeypatch):
    # Parallel nets of weight 2**30 merge into coarse nets of 2**31 and
    # more: held in 64 bits, refused by the coarsest level's gain bound.
    pairs = 40
    nets = [[2 * i, 2 * i + 1] for i in range(pairs)]
    nets += [[2 * i, 2 * ((i + 1) % pairs) + 1] for i in range(pairs)]
    nets += [[2 * i + 1, 2 * ((i + 1) % pairs)] for i in range(pairs)]
    hg = Hypergraph(nets, num_modules=2 * pairs,
                    net_weights=[2 ** 30] * len(nets))
    config = MLConfig(engine="fm", coarsening_threshold=10)
    weights = {}
    for loop in each_loop():
        hierarchy = build_hierarchy(hg, config, seed=2)
        weights[loop] = [level.weights_list for level in hierarchy.netlists]
        assert max(weights[loop][-1]) > 2 ** 31 - 1
        with monkeypatch.context() as patch:
            _no_buckets(patch)
            with pytest.raises(PartitionError, match="gain bound"):
                ml_bipartition(hg, config, seed=2)
    assert len(set(map(str, weights.values()))) == 1


@pytest.mark.parametrize("heavy", [2 ** 62 - 1, 2 ** 62],
                         ids=["fits", "overflows"])
def test_merged_weight_beyond_int64_is_named(heavy):
    # Two nets of weight 2**62 merge into one coarse net of 2**63,
    # which no 64-bit weight holds; one less still fits.
    hg = Hypergraph([[0, 2], [1, 3], [0, 1]], num_modules=4,
                    net_weights=[heavy, 2 ** 62, 1])
    clustering = Clustering([0, 0, 1, 1])
    coarse = {}
    for loop in each_loop():
        if heavy < 2 ** 62:
            coarse[loop] = _level(induce(hg, clustering))
            continue
        with pytest.raises(PartitionError,
                           match="merged net weight exceeds int64"):
            induce(hg, clustering)
    if heavy < 2 ** 62:
        assert len(set(map(str, coarse.values()))) == 1


def test_cli_names_the_gain_bound(tmp_path, capsys):
    path = tmp_path / "heavy.hgr"
    path.write_text("4 5 1\n2147483648 1 2\n1 2 3\n1 3 4\n1 4 5\n")
    for loop in each_loop():
        assert main(["partition", str(path), "--algorithm", "mlc"]) == 2
        err = capsys.readouterr().err
        assert "PartitionError: gain bound 4294967298" in err, loop


def test_weight_beyond_int64_is_refused():
    with pytest.raises(HypergraphError, match="2\\*\\*63"):
        Hypergraph([[0, 1]], net_weights=[2 ** 63])
