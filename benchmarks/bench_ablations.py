"""Ablations over the design choices DESIGN.md calls out.

Not a paper table — these isolate the ingredients the paper credits for
ML's quality, plus the Section V future-work features implemented here:

* coarsening scheme: the paper's ``conn`` matching vs ``heavy``
  (no area term) vs ``random`` (Chaco-style) matching;
* bucket discipline inside ML (LIFO vs FIFO refinement);
* extra coarsest-level starts (Section V);
* direct 4-way FM vs recursive bisection;
* parallel coarse-net merging on/off in ``Induce``.
"""

from statistics import mean

from repro.clustering import induce, match
from repro.core import (MLConfig, ml_bipartition, ml_quadrisection,
                        recursive_bisection)
from repro.harness import TableResult
from repro.hypergraph import load_circuit
from repro.partition import cut
from repro.rng import child_seeds, stable_seed
from repro.fm import FMConfig


def _avg_cut(fn, runs, label):
    cuts = [fn(s).cut for s in child_seeds(stable_seed(label), runs)]
    return round(mean(cuts), 1), min(cuts)


def test_ablation_matching_scheme(benchmark, bench_params, save_table):
    hg = load_circuit("biomed", scale=bench_params["scale"],
                      seed=bench_params["seed"])
    runs = bench_params["runs"]

    def run():
        rows = []
        for scheme in ("conn", "heavy", "random"):
            config = MLConfig(engine="clip", matching_scheme=scheme)
            avg, best = _avg_cut(
                lambda s, c=config: ml_bipartition(hg, config=c, seed=s),
                runs, f"scheme-{scheme}")
            rows.append([scheme, best, avg])
        return TableResult(
            title=f"Ablation: Match scheme (ML_C on biomed, {runs} runs)",
            headers=["scheme", "min cut", "avg cut"], rows=rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(result, "ablation_matching.txt")
    by_scheme = {row[0]: row[2] for row in result.rows}
    # The paper's conn matching should not lose to random matching.
    assert by_scheme["conn"] <= by_scheme["random"] * 1.10


def test_ablation_refinement_policy(benchmark, bench_params, save_table):
    hg = load_circuit("biomed", scale=bench_params["scale"],
                      seed=bench_params["seed"])
    runs = bench_params["runs"]

    def run():
        rows = []
        for policy in ("lifo", "fifo"):
            config = MLConfig(engine="fm",
                              fm=FMConfig(bucket_policy=policy))
            avg, best = _avg_cut(
                lambda s, c=config: ml_bipartition(hg, config=c, seed=s),
                runs, f"policy-{policy}")
            rows.append([policy, best, avg])
        return TableResult(
            title=f"Ablation: bucket policy inside ML_F (biomed, "
                  f"{runs} runs)",
            headers=["policy", "min cut", "avg cut"], rows=rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(result, "ablation_policy.txt")
    lifo, fifo = result.rows[0][2], result.rows[1][2]
    # Multilevel softens the LIFO/FIFO gap but must not invert it badly.
    assert lifo <= fifo * 1.15


def test_ablation_coarsest_starts(benchmark, bench_params, save_table):
    hg = load_circuit("avqsmall", scale=bench_params["scale"],
                      seed=bench_params["seed"])
    runs = max(3, bench_params["runs"] // 2)
    variants = [
        ("baseline ML_F", MLConfig(engine="fm")),
        ("+ 8 coarsest starts", MLConfig(engine="fm", coarsest_starts=8)),
    ]

    def run():
        import time
        rows = []
        for label, config in variants:
            start = time.perf_counter()
            avg, best = _avg_cut(
                lambda s, c=config: ml_bipartition(hg, config=c, seed=s),
                runs, label)
            rows.append([label, best, avg,
                         round(1000 * (time.perf_counter() - start))])
        return TableResult(
            title=f"Ablation: Section V coarsest-level starts (ML_F on "
                  f"avqsmall, {runs} runs)",
            headers=["variant", "min cut", "avg cut", "wall (ms)"],
            rows=rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(result, "ablation_sectionv.txt")
    base_avg = result.rows[0][2]
    for row in result.rows[1:]:
        assert row[2] <= base_avg * 1.25  # features must not wreck quality


def test_ablation_direct_vs_recursive_kway(benchmark, bench_params,
                                           save_table):
    hg = load_circuit("primary2", scale=bench_params["scale"],
                      seed=bench_params["seed"])
    runs = max(2, bench_params["runs"] // 2)

    def run():
        direct = [ml_quadrisection(hg, seed=s).cut
                  for s in child_seeds(stable_seed("direct"), runs)]
        recursive = [cut(hg, recursive_bisection(hg, k=4, seed=s))
                     for s in child_seeds(stable_seed("recursive"), runs)]
        rows = [["direct 4-way FM", min(direct),
                 round(mean(direct), 1)],
                ["recursive bisection", min(recursive),
                 round(mean(recursive), 1)]]
        return TableResult(
            title=f"Ablation: direct k-way vs recursive bisection "
                  f"(primary2, k=4, {runs} runs)",
            headers=["strategy", "min cut", "avg cut"], rows=rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(result, "ablation_kway.txt")
    assert result.rows[0][1] > 0 and result.rows[1][1] > 0


def test_ablation_parallel_net_merging(benchmark, bench_params, save_table):
    hg = load_circuit("s9234", scale=bench_params["scale"],
                      seed=bench_params["seed"])

    def run():
        clustering = match(hg, ratio=1.0, seed=0)
        merged = induce(hg, clustering, merge_parallel=True)
        unmerged = induce(hg, clustering, merge_parallel=False)
        rows = [["merged", merged.num_nets, merged.total_net_weight],
                ["unmerged", unmerged.num_nets,
                 unmerged.total_net_weight]]
        return TableResult(
            title="Ablation: Induce parallel-net merging (s9234, one "
                  "coarsening level)",
            headers=["mode", "coarse nets", "total weight"], rows=rows)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(result, "ablation_merge.txt")
    merged_row, unmerged_row = result.rows
    assert merged_row[1] <= unmerged_row[1]
    assert merged_row[2] == unmerged_row[2]  # weight (= cut metric) equal
