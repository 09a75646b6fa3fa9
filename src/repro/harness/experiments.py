"""Experiment definitions: one function per paper table/figure.

Every table and figure of the paper's evaluation (Tables I-IX and
Figure 4) has a generator here that runs the experiment on the
synthetic suite and returns a :class:`TableResult` whose headers and
rows mirror the paper's layout.  The benchmark harness
(``benchmarks/``) invokes these and prints them; EXPERIMENTS.md records
paper-vs-measured values.  Each generator runs its cells through
:func:`~repro.harness.runner.run_matrix`, so a cell's seed depends only
on the top-level seed, the circuit and the algorithm name.

Scale defaults are chosen so the whole suite runs in minutes of pure
Python rather than the days the paper's full 100-run protocol would
take (see DESIGN.md, substitutions); all knobs are parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines.lsmc import lsmc_bipartition, lsmc_kway
from ..baselines.prop import prop_bipartition
from ..baselines.twophase import two_phase_fm
from ..core.config import MLConfig
from ..core.ml import ml_bipartition
from ..core.quadrisection import default_quad_config, ml_kway
from ..hypergraph import (Hypergraph, benchmark_spec, compute_stats,
                          load_circuit)
from ..rng import SeedLike
from ..fm.config import FMConfig
from ..fm.engine import fm_bipartition
from ..fm.kway import kway_partition
from .formatting import format_table
from .literature import (TABLE_VII_ALGORITHMS, TABLE_VII_CUTS,
                         TABLE_VIII_CPU, percent_improvement)
from .runner import Algorithm, CellStats, run_matrix

__all__ = [
    "TableResult",
    "BENCH_CIRCUITS",
    "BENCH_SCALE",
    "BENCH_RUNS",
    "fm_algorithm",
    "clip_algorithm",
    "ml_algorithm",
    "table1_characteristics",
    "table2_tiebreak",
    "table3_fm_vs_clip",
    "table4_ml_vs_clip",
    "table5_mlf_ratio",
    "table6_mlc_ratio",
    "table7_comparison",
    "table8_cpu",
    "table9_quadrisection",
    "figure4_ratio_tradeoff",
]

#: Default circuit subset for the fast experiment suite: spans the
#: small, medium, and large thirds of Table I.
BENCH_CIRCUITS = ("struct", "primary2", "s9234", "biomed", "avqsmall")

#: Default size scale applied to Table I circuits (see DESIGN.md).
BENCH_SCALE = 0.1

#: Default number of runs per cell (the paper uses 100).
BENCH_RUNS = 5


@dataclass
class TableResult:
    """One reproduced table: layout mirroring the paper + raw stats."""

    title: str
    headers: List[str]
    rows: List[List[object]]
    cells: Dict[str, Dict[str, CellStats]] = field(default_factory=dict)

    def render(self, digits: int = 1) -> str:
        return format_table(self.headers, self.rows, title=self.title,
                            digits=digits)


# ----------------------------------------------------------------------
# Algorithm factories.
# ----------------------------------------------------------------------

@dataclass(eq=False)
class _Seeded:
    """``fn(hg, seed=seed, **kwargs)`` as an ``Algorithm.fn``: a
    module-level callable rather than a closure, so the algorithm
    pickles and a live worker pool takes each cell without re-forking
    (like :func:`repro.solvers.build_algorithm`'s algorithms)."""

    fn: Callable
    kwargs: Dict[str, object]

    def __call__(self, hg: Hypergraph, seed: int):
        return self.fn(hg, seed=seed, **self.kwargs)


def _algorithm(name: str, fn: Callable, **kwargs) -> Algorithm:
    return Algorithm(name, _Seeded(fn, kwargs))


def fm_algorithm(policy: str = "lifo", name: Optional[str] = None,
                 **kwargs) -> Algorithm:
    """Flat FM with the given bucket policy."""
    config = FMConfig(bucket_policy=policy, **kwargs)
    return _algorithm(name or f"FM-{policy.upper()}", fm_bipartition,
                      config=config)


def clip_algorithm(name: str = "CLIP", **kwargs) -> Algorithm:
    """Flat CLIP."""
    return _algorithm(name, fm_bipartition,
                      config=FMConfig(clip=True, **kwargs))


def ml_algorithm(engine: str = "clip", ratio: float = 1.0,
                 threshold: int = 35, name: Optional[str] = None,
                 **kwargs) -> Algorithm:
    """ML_F / ML_C with matching ratio ``R`` and threshold ``T``."""
    config = MLConfig(engine=engine, matching_ratio=ratio,
                      coarsening_threshold=threshold, **kwargs)
    label = name or f"ML{engine[0].upper()}(R={ratio:g})"
    return _algorithm(label, ml_bipartition, config=config)


def _load(circuits: Sequence[str], scale: float,
          seed: SeedLike) -> List[Hypergraph]:
    return [load_circuit(name, scale=scale, seed=seed) for name in circuits]


# ----------------------------------------------------------------------
# Table I.
# ----------------------------------------------------------------------

def table1_characteristics(circuits: Sequence[str] = BENCH_CIRCUITS,
                           scale: float = BENCH_SCALE,
                           seed: SeedLike = 0) -> TableResult:
    """Benchmark characteristics: Table I spec vs generated stand-in."""
    headers = ["Test Case", "Spec Modules", "Spec Nets", "Spec Pins",
               "Gen Modules", "Gen Nets", "Gen Pins", "Scale"]
    rows: List[List[object]] = []
    for name in circuits:
        spec = benchmark_spec(name)
        stats = compute_stats(load_circuit(name, scale=scale, seed=seed))
        rows.append([name, spec.modules, spec.nets, spec.pins,
                     stats.modules, stats.nets, stats.pins, scale])
    return TableResult(
        title="Table I: benchmark circuit characteristics "
              "(paper spec vs synthetic stand-in)",
        headers=headers, rows=rows)


# ----------------------------------------------------------------------
# Table II: LIFO vs FIFO vs RND buckets.
# ----------------------------------------------------------------------

def table2_tiebreak(circuits: Sequence[str] = BENCH_CIRCUITS,
                    scale: float = BENCH_SCALE,
                    runs: int = BENCH_RUNS,
                    seed: SeedLike = 0,
                    jobs: int = 1) -> TableResult:
    """FM under the three bucket disciplines (min/avg/std per circuit)."""
    algorithms = [fm_algorithm("lifo", name="LIFO"),
                  fm_algorithm("fifo", name="FIFO"),
                  fm_algorithm("random", name="RND")]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    headers = ["Test Case",
               "MIN LIFO", "MIN FIFO", "MIN RND",
               "AVG LIFO", "AVG FIFO", "AVG RND",
               "STD LIFO", "STD FIFO", "STD RND"]
    rows = []
    for name in circuits:
        row_cells = cells[name]
        rows.append([name]
                    + [row_cells[a].min_cut for a in ("LIFO", "FIFO", "RND")]
                    + [round(row_cells[a].avg_cut, 1)
                       for a in ("LIFO", "FIFO", "RND")]
                    + [round(row_cells[a].std_cut, 1)
                       for a in ("LIFO", "FIFO", "RND")])
    return TableResult(
        title=f"Table II: FM bucket disciplines ({runs} runs, r=0.1)",
        headers=headers, rows=rows, cells=cells)


# ----------------------------------------------------------------------
# Table III: FM vs CLIP.
# ----------------------------------------------------------------------

def table3_fm_vs_clip(circuits: Sequence[str] = BENCH_CIRCUITS,
                      scale: float = BENCH_SCALE,
                      runs: int = BENCH_RUNS,
                      seed: SeedLike = 0,
                      jobs: int = 1) -> TableResult:
    """FM vs CLIP: min/avg/std cut and total CPU time."""
    algorithms = [fm_algorithm("lifo", name="FM"), clip_algorithm("CLIP")]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    headers = ["Test Case", "MIN FM", "MIN CLIP", "AVG FM", "AVG CLIP",
               "STD FM", "STD CLIP", "CPU FM", "CPU CLIP"]
    rows = []
    for name in circuits:
        fm, clip = cells[name]["FM"], cells[name]["CLIP"]
        rows.append([name, fm.min_cut, clip.min_cut,
                     round(fm.avg_cut, 1), round(clip.avg_cut, 1),
                     round(fm.std_cut, 1), round(clip.std_cut, 1),
                     round(fm.cpu_seconds, 2), round(clip.cpu_seconds, 2)])
    return TableResult(
        title=f"Table III: FM vs CLIP ({runs} runs)",
        headers=headers, rows=rows, cells=cells)


# ----------------------------------------------------------------------
# Table IV: CLIP vs ML_F vs ML_C (R = 1).
# ----------------------------------------------------------------------

def table4_ml_vs_clip(circuits: Sequence[str] = BENCH_CIRCUITS,
                      scale: float = BENCH_SCALE,
                      runs: int = BENCH_RUNS,
                      seed: SeedLike = 0,
                      threshold: int = 35,
                      jobs: int = 1) -> TableResult:
    """CLIP vs the two ML variants with complete matching (R = 1)."""
    algorithms = [clip_algorithm("CLIP"),
                  ml_algorithm("fm", 1.0, threshold, name="MLF"),
                  ml_algorithm("clip", 1.0, threshold, name="MLC")]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    names = ("CLIP", "MLF", "MLC")
    headers = (["Test Case"]
               + [f"MIN {n}" for n in names]
               + [f"AVG {n}" for n in names]
               + [f"CPU {n}" for n in names])
    rows = []
    for name in circuits:
        row_cells = cells[name]
        rows.append([name]
                    + [row_cells[n].min_cut for n in names]
                    + [round(row_cells[n].avg_cut, 1) for n in names]
                    + [round(row_cells[n].cpu_seconds, 2) for n in names])
    return TableResult(
        title=f"Table IV: CLIP vs ML_F vs ML_C, R=1.0, T={threshold} "
              f"({runs} runs)",
        headers=headers, rows=rows, cells=cells)


# ----------------------------------------------------------------------
# Tables V and VI: the matching-ratio sweep.
# ----------------------------------------------------------------------

def _ratio_sweep(engine: str, title: str,
                 circuits: Sequence[str], scale: float, runs: int,
                 seed: SeedLike, ratios: Sequence[float],
                 threshold: int, jobs: int = 1) -> TableResult:
    algorithms = [ml_algorithm(engine, r, threshold, name=f"R={r:g}")
                  for r in ratios]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    names = [a.name for a in algorithms]
    headers = (["Test Case"]
               + [f"MIN {n}" for n in names]
               + [f"AVG {n}" for n in names]
               + [f"CPU {n}" for n in names])
    rows = []
    for name in circuits:
        row_cells = cells[name]
        rows.append([name]
                    + [row_cells[n].min_cut for n in names]
                    + [round(row_cells[n].avg_cut, 1) for n in names]
                    + [round(row_cells[n].cpu_seconds, 2) for n in names])
    return TableResult(title=title, headers=headers, rows=rows, cells=cells)


def table5_mlf_ratio(circuits: Sequence[str] = BENCH_CIRCUITS,
                     scale: float = BENCH_SCALE,
                     runs: int = BENCH_RUNS,
                     seed: SeedLike = 0,
                     ratios: Sequence[float] = (1.0, 0.5, 0.33),
                     threshold: int = 35,
                     jobs: int = 1) -> TableResult:
    """ML_F for R in {1.0, 0.5, 0.33} (Table V)."""
    return _ratio_sweep(
        "fm", f"Table V: ML_F matching-ratio sweep ({runs} runs)",
        circuits, scale, runs, seed, ratios, threshold, jobs=jobs)


def table6_mlc_ratio(circuits: Sequence[str] = BENCH_CIRCUITS,
                     scale: float = BENCH_SCALE,
                     runs: int = BENCH_RUNS,
                     seed: SeedLike = 0,
                     ratios: Sequence[float] = (1.0, 0.5, 0.33),
                     threshold: int = 35,
                     jobs: int = 1) -> TableResult:
    """ML_C for R in {1.0, 0.5, 0.33} (Table VI)."""
    return _ratio_sweep(
        "clip", f"Table VI: ML_C matching-ratio sweep ({runs} runs)",
        circuits, scale, runs, seed, ratios, threshold, jobs=jobs)


# ----------------------------------------------------------------------
# Table VII: ML_C vs other bipartitioners.
# ----------------------------------------------------------------------

def table7_comparison(circuits: Sequence[str] = BENCH_CIRCUITS,
                      scale: float = BENCH_SCALE,
                      runs: int = BENCH_RUNS,
                      runs_small: Optional[int] = None,
                      lsmc_descents: int = 10,
                      seed: SeedLike = 0,
                      jobs: int = 1) -> TableResult:
    """ML_C (R=0.5) vs reimplemented + literature comparators.

    Columns: ML_C min cut over ``runs`` and over the ``runs_small``
    prefix, our reimplemented comparators (single run each of LSMC,
    spectral+FM, PROP, two-phase FM), then the paper's published
    literature columns for the same circuit names, with the percent-
    improvement summary computed like the paper's final rows.
    """
    from ..baselines.spectral import spectral_bipartition
    runs_small = runs_small or max(1, runs // 2)
    mlc = ml_algorithm("clip", 0.5, name="MLC")
    cl_la3 = FMConfig(clip=True, lookahead=3)
    reimplemented = [
        _algorithm("LSMC", lsmc_bipartition, descents=lsmc_descents),
        _algorithm("Spectral+FM", spectral_bipartition),
        _algorithm("PROP", prop_bipartition),
        _algorithm("2phase", two_phase_fm),
        _algorithm("CL-LA3", fm_bipartition, config=cl_la3),
    ]
    cells = run_matrix([mlc] + reimplemented, _load(circuits, scale, seed),
                       runs, seed, jobs=jobs)

    headers = (["Test Case", f"MLC({runs})", f"MLC({runs_small})"]
               + [a.name for a in reimplemented]
               + [f"lit:{a}" for a in TABLE_VII_ALGORITHMS])
    rows: List[List[object]] = []
    ours_full: Dict[str, int] = {}
    ours_small: Dict[str, int] = {}
    for name in circuits:
        row_cells = cells[name]
        mlc_cell = row_cells["MLC"]
        full = mlc_cell.min_cut
        small = min(mlc_cell.cuts[:runs_small])
        ours_full[name] = full
        ours_small[name] = small
        literature = TABLE_VII_CUTS.get(name, {})
        rows.append([name, full, small]
                    + [row_cells[a.name].min_cut for a in reimplemented]
                    + [literature.get(a) for a in TABLE_VII_ALGORITHMS])

    for label, ours in ((f"% imprv ({runs} runs)", ours_full),
                        (f"% imprv ({runs_small} runs)", ours_small)):
        improvements: List[object] = [label, None, None]
        for algorithm in reimplemented:
            theirs = {name: cells[name][algorithm.name].min_cut
                      for name in circuits}
            improvements.append(
                round(percent_improvement(ours, theirs) or 0.0, 1))
        for algo in TABLE_VII_ALGORITHMS:
            # Published cuts were measured on the full-size circuits, so
            # comparing against them is only meaningful at scale 1.0.
            if scale != 1.0:
                improvements.append(None)
                continue
            theirs = {name: TABLE_VII_CUTS.get(name, {}).get(algo)
                      for name in circuits}
            value = percent_improvement(ours, theirs)
            improvements.append(None if value is None else round(value, 1))
        rows.append(improvements)

    return TableResult(
        title=f"Table VII: ML_C (R=0.5) vs other bipartitioners "
              f"({runs}/{runs_small} runs; lit:* columns are the paper's "
              "published values on the real benchmarks)",
        headers=headers, rows=rows, cells=cells)


# ----------------------------------------------------------------------
# Table VIII: CPU comparison.
# ----------------------------------------------------------------------

def table8_cpu(circuits: Sequence[str] = BENCH_CIRCUITS,
               scale: float = BENCH_SCALE,
               runs: int = BENCH_RUNS,
               lsmc_descents: int = 10,
               seed: SeedLike = 0,
               jobs: int = 1) -> TableResult:
    """CPU seconds for ``runs`` runs of each reimplemented algorithm,
    next to the paper's published Table VIII columns."""
    algorithms = [ml_algorithm("clip", 0.5, name="MLC"),
                  fm_algorithm("lifo", name="FM"),
                  clip_algorithm("CLIP"),
                  _algorithm("LSMC", lsmc_bipartition,
                             descents=lsmc_descents),
                  _algorithm("PROP", prop_bipartition)]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    lit_columns = ("MLc10", "GMet", "PB", "GFM", "CL-LA3f", "LSMC")
    headers = (["Test Case"]
               + [f"{a.name} (s)" for a in algorithms]
               + [f"lit:{c}" for c in lit_columns])
    rows = []
    for name in circuits:
        literature = TABLE_VIII_CPU.get(name, {})
        rows.append([name]
                    + [round(cells[name][a.name].cpu_seconds, 2)
                       for a in algorithms]
                    + [literature.get(c) for c in lit_columns])
    return TableResult(
        title=f"Table VIII: CPU time for {runs} runs (ours, this host) "
              "vs published seconds (lit:*, Sparc-era hosts)",
        headers=headers, rows=rows, cells=cells)


# ----------------------------------------------------------------------
# Table IX: quadrisection.
# ----------------------------------------------------------------------

def table9_quadrisection(circuits: Sequence[str] = ("primary2", "biomed",
                                                    "s13207"),
                         scale: float = BENCH_SCALE,
                         runs: int = 3,
                         lsmc_descents: int = 3,
                         seed: SeedLike = 0,
                         jobs: int = 1) -> TableResult:
    """4-way cuts: ML_F vs GORDIAN-sim vs FM4 vs CLIP4 vs LSMC_F/LSMC_C.

    ML uses the paper's Table IX settings (R=1.0, T=100, FM engine,
    sum-of-degrees gain).  GORDIAN is the quadratic-placement
    simulator; its split is deterministic given the pad seed, so it
    gets one run per circuit.
    """
    from ..baselines.gordian import gordian_quadrisection
    quad_config = default_quad_config()
    clip4 = FMConfig(clip=True)
    algorithms = [
        _algorithm("MLF4", ml_kway, k=4, config=quad_config,
                   objective="soed"),
        _algorithm("GORDIAN", gordian_quadrisection),
        _algorithm("FM4", kway_partition, k=4, objective="soed"),
        _algorithm("CLIP4", kway_partition, k=4, config=clip4,
                   objective="soed"),
        _algorithm("LSMCF", lsmc_kway, k=4, descents=lsmc_descents),
        _algorithm("LSMCC", lsmc_kway, k=4, descents=lsmc_descents,
                   config=clip4),
    ]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    names = [a.name for a in algorithms]
    headers = ["Test Case"] + [f"{n} min" for n in names] + ["MLF4 avg"]
    rows = []
    for name in circuits:
        row_cells = cells[name]
        rows.append([name]
                    + [row_cells[n].min_cut for n in names]
                    + [round(row_cells["MLF4"].avg_cut, 1)])
    return TableResult(
        title=f"Table IX: 4-way partitioning comparisons ({runs} runs)",
        headers=headers, rows=rows, cells=cells)


# ----------------------------------------------------------------------
# Figure 4: matching ratio vs average cut.
# ----------------------------------------------------------------------

def figure4_ratio_tradeoff(circuits: Sequence[str] = ("avqsmall",),
                           scale: float = BENCH_SCALE,
                           runs: int = BENCH_RUNS,
                           ratios: Sequence[float] = (1.0, 0.8, 0.6, 0.4,
                                                      0.2),
                           seed: SeedLike = 0,
                           jobs: int = 1) -> TableResult:
    """Average ML_C cut as a function of the matching ratio R."""
    algorithms = [ml_algorithm("clip", r, name=f"MLC(R={r:g})")
                  for r in ratios]
    cells = run_matrix(algorithms, _load(circuits, scale, seed), runs,
                       seed, jobs=jobs)
    headers = ["R"] + [f"{c} avg cut" for c in cells] \
        + [f"{c} cpu" for c in cells]
    rows = []
    for ratio, algorithm in zip(ratios, algorithms):
        points = [row[algorithm.name] for row in cells.values()]
        rows.append([ratio] + [round(p.avg_cut, 1) for p in points]
                    + [round(p.cpu_seconds, 2) for p in points])
    return TableResult(
        title=f"Figure 4: matching ratio vs average cut ({runs} runs "
              "per point)",
        headers=headers, rows=rows, cells=cells)
