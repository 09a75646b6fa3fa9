"""The cut-vs-time front of the multilevel refinement variants.

For each circuit of the Table I mini suite and each variant in
``VARIANTS``, the same 16 seeds (``child_seeds``) run in process, the
variants interleaved seed by seed.  Seeds are position-stable, so the
first N of them are what a ``--runs N`` multistart would run: each
row reports, at runs = 1, 4 and 16, the best and the mean cut against
the wall those N starts took together.

A variant with a ``base`` is scored against it with the repo's paired
comparator (:func:`repro.obs.compare.compare_sample_sets`): the 16
per-seed cuts and walls of the two variants, paired by seed, each get
an ``improved``/``regressed``/``indistinguishable`` verdict (cut from a
1% median shift, wall from 25%, sign test at 5%).  ``mlf`` is scored
against ``mlc``.

Every base variant's cuts must equal those of the algorithm of the same
name in :mod:`repro.solvers` (asserted per row), so the front measures
exactly what ``repro partition`` and the service run.

Script runs (``python benchmarks/bench_front.py``) write
``BENCH_front.json`` at the repo root, committed from a default run
(scale 0.3, all 8 circuits); pytest passes only overwrite it when
``REPRO_BENCH_WRITE=1``.  Environment knobs: ``REPRO_BENCH_SCALE``
(default 0.3), ``REPRO_BENCH_SEED`` (default 0),
``REPRO_BENCH_FRONT_CIRCUITS`` (comma-separated subset of the mini
suite), ``REPRO_BENCH_WRITE``.
"""

import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro import ml_bipartition
from repro.hypergraph import load_circuit, mini_suite_names
from repro.obs.compare import compare_sample_sets
from repro.rng import child_seeds, stable_seed
from repro.solvers import ML_ENGINE_OF, ml_config_for, single_run

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
#: The multistart budgets; the largest is the number of seeds per row.
BUDGETS = (1, 4, 16)
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_front.json"

#: name -> (base it is scored against, or None; its MLConfig).
VARIANTS = {
    "mlc": (None, ml_config_for("mlc")),
    "mlf": ("mlc", ml_config_for("mlf")),
}


def _circuit_names():
    names = os.environ.get("REPRO_BENCH_FRONT_CIRCUITS")
    if names:
        return [n.strip() for n in names.split(",") if n.strip()]
    return mini_suite_names()


def front_rows(name: str) -> list:
    """One row per variant on circuit ``name``: per-seed cuts and
    walls, the three budgets, and the verdicts against its base."""
    hg = load_circuit(name, scale=SCALE, seed=SEED)
    seeds = child_seeds(stable_seed("front", name), BUDGETS[-1])
    # The identity check runs first and untimed, so the netlist's lazy
    # views are built before any timed run.
    served = {v: [single_run(v, hg, seed=s).cut for s in seeds]
              for v in VARIANTS if v in ML_ENGINE_OF}
    cuts = {v: [] for v in VARIANTS}
    walls = {v: [] for v in VARIANTS}
    for s in seeds:
        for v, (_, config) in VARIANTS.items():
            start = time.perf_counter()
            result = ml_bipartition(hg, config=config, seed=s)
            walls[v].append(time.perf_counter() - start)
            cuts[v].append(result.cut)
    for v, expected in served.items():
        assert cuts[v] == expected, (
            f"{name}/{v}: the front's cuts differ from solvers.single_run")

    rows = []
    for v, (base, _) in VARIANTS.items():
        row = {"circuit": name, "modules": hg.num_modules, "variant": v,
               "base": base, "cuts": cuts[v],
               "wall_ms": [round(1000 * w, 2) for w in walls[v]],
               "budgets": [{"runs": n, "best_cut": min(cuts[v][:n]),
                            "mean_cut": round(statistics.mean(cuts[v][:n]),
                                              2),
                            "wall_s": round(sum(walls[v][:n]), 4)}
                           for n in BUDGETS]}
        if base is not None:
            key = f"{name}/{v}"
            verdicts = compare_sample_sets(
                {key: {"cut": cuts[base], "wall": walls[base]}},
                {key: {"cut": cuts[v], "wall": walls[v]}})
            row["verdict"] = {c.metric: c.verdict for c in verdicts}
            row["p_value"] = {c.metric: round(c.p_value, 4)
                              for c in verdicts}
        rows.append(row)
    return rows


def run_bench() -> dict:
    results = []
    for name in _circuit_names():
        results.extend(front_rows(name))
    summary = {}
    for v, (base, _) in VARIANTS.items():
        if base is None:
            continue
        scored = [r["verdict"] for r in results if r["variant"] == v]
        summary[f"{v} vs {base}"] = {
            metric: {verdict: sum(1 for s in scored if s[metric] == verdict)
                     for verdict in ("improved", "regressed",
                                     "indistinguishable")}
            for metric in ("cut", "wall")}
    return {
        "meta": {
            "scale": SCALE, "seed": SEED, "budgets": list(BUDGETS),
            "seeds_per_row": BUDGETS[-1],
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "contract": ("every base variant's cuts equal "
                         "solvers.single_run's for the same seeds "
                         "(asserted); verdicts are compare.py's, cut at a "
                         "1% and wall at a 25% median shift"),
        },
        "results": results,
        "summary": summary,
    }


def print_report(report: dict) -> None:
    print(f"\ncut-vs-time front, scale {report['meta']['scale']}: "
          "best / mean cut and wall (s) at runs = "
          + ", ".join(str(n) for n in report["meta"]["budgets"]))
    for r in report["results"]:
        cells = "  ".join(f"{b['best_cut']:>6} {b['mean_cut']:>9.2f} "
                          f"{b['wall_s']:>8.3f}" for b in r["budgets"])
        verdict = r.get("verdict")
        tail = (f"  cut {verdict['cut']}, wall {verdict['wall']} "
                f"vs {r['base']}" if verdict else "")
        print(f"{r['circuit']:>9} {r['variant']:>14} {cells}{tail}")
    for pair, counts in report["summary"].items():
        print(f"{pair}: " + "; ".join(
            f"{metric} " + ", ".join(f"{n} {k}" for k, n in c.items())
            for metric, c in counts.items()))


def write_report(report: dict) -> None:
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")


def test_bench_front():
    report = run_bench()
    print_report(report)
    # The committed BENCH_front.json comes from a full script run; a
    # pytest pass over a subset must not quietly replace it.
    if os.environ.get("REPRO_BENCH_WRITE", "").lower() in ("1", "true"):
        write_report(report)
    # Identity is asserted per row inside front_rows; nothing here
    # gates on timing.
    assert report["results"]


if __name__ == "__main__":
    report = run_bench()
    print_report(report)
    write_report(report)
