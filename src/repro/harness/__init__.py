"""Experiment harness: multistart runner, table formatting, the paper's
published numbers, and generators for every table/figure.

:class:`Algorithm` is re-exported from :mod:`repro.runtime`, which
defines it next to :class:`~repro.runtime.Portfolio`.  The table
generators resolve on first access (:mod:`repro.lazy`), so importing
the runner does not import every comparator they run."""

from ..lazy import lazy_exports
from .formatting import format_number, format_table
from .plotting import ascii_chart
from .literature import (TABLE_VII_ALGORITHMS, TABLE_VII_CUTS,
                         TABLE_VII_IMPROVEMENT, TABLE_VII_MLC,
                         TABLE_VIII_CPU, percent_improvement)
from .runner import Algorithm, CellStats, run_cell, run_matrix

__all__ = [
    "Algorithm",
    "CellStats",
    "run_cell",
    "run_matrix",
    "format_table",
    "format_number",
    "ascii_chart",
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
    "TABLE_VII_ALGORITHMS",
    "TABLE_VII_CUTS",
    "TABLE_VII_MLC",
    "TABLE_VII_IMPROVEMENT",
    "TABLE_VIII_CPU",
    "percent_improvement",
]

__getattr__ = lazy_exports(__name__, {
    ".experiments": ("BENCH_CIRCUITS", "BENCH_RUNS", "BENCH_SCALE",
                     "TableResult", "clip_algorithm",
                     "figure4_ratio_tradeoff", "fm_algorithm",
                     "ml_algorithm", "table1_characteristics",
                     "table2_tiebreak", "table3_fm_vs_clip",
                     "table4_ml_vs_clip", "table5_mlf_ratio",
                     "table6_mlc_ratio", "table7_comparison", "table8_cpu",
                     "table9_quadrisection"),
})
