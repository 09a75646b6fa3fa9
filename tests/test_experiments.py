"""Smoke tests for the per-table experiment generators (tiny scale)."""

import pytest

from repro.harness import (figure4_ratio_tradeoff, table1_characteristics,
                           table2_tiebreak, table3_fm_vs_clip,
                           table4_ml_vs_clip, table5_mlf_ratio,
                           table6_mlc_ratio, table7_comparison, table8_cpu,
                           table9_quadrisection)

TINY = dict(circuits=("balu", "struct"), scale=0.12, runs=2, seed=0)


class TestTableGenerators:
    def test_table1(self):
        result = table1_characteristics(circuits=("balu", "golem3"),
                                        scale=0.05)
        assert len(result.rows) == 2
        assert result.rows[0][0] == "balu"
        assert result.rows[1][1] == 103048  # spec modules for golem3
        assert result.render()

    def test_table2(self):
        result = table2_tiebreak(**TINY)
        assert len(result.rows) == 2
        assert len(result.headers) == 10
        for row in result.rows:
            mins, avgs = row[1:4], row[4:7]
            for m, a in zip(mins, avgs):
                assert m <= a

    def test_table3(self):
        result = table3_fm_vs_clip(**TINY)
        for row in result.rows:
            assert row[1] <= row[3]  # min FM <= avg FM
            assert row[2] <= row[4]  # min CLIP <= avg CLIP
        # CPU was measured (unrounded cells: the rounded table columns
        # can legitimately show 0.00 now that the kernels are fast).
        for cells in result.cells.values():
            assert cells["FM"].cpu_seconds > 0
            assert cells["CLIP"].cpu_seconds > 0

    def test_table4(self):
        result = table4_ml_vs_clip(**TINY)
        assert [r[0] for r in result.rows] == ["balu", "struct"]
        assert "MIN MLC" in result.headers

    def test_table5_and_6(self):
        for fn in (table5_mlf_ratio, table6_mlc_ratio):
            result = fn(ratios=(1.0, 0.5), **TINY)
            assert len(result.headers) == 1 + 3 * 2
            assert result.render()

    def test_table7(self):
        result = table7_comparison(circuits=("balu", "struct"), scale=0.12,
                                   runs=2, runs_small=1, lsmc_descents=2,
                                   seed=0)
        # two circuit rows + two improvement rows
        assert len(result.rows) == 4
        assert result.rows[-1][0].startswith("% imprv")
        # literature columns present for these known circuits
        lit_start = result.headers.index("lit:GMet")
        assert result.rows[0][lit_start] == 27  # GMet on balu

    def test_table8(self):
        result = table8_cpu(circuits=("balu",), scale=0.12, runs=2,
                            lsmc_descents=2, seed=0)
        assert result.rows[0][0] == "balu"
        # Unrounded cells: the rounded table columns can show 0.00 for
        # the fastest algorithms at this tiny scale.
        assert all(cell.cpu_seconds > 0
                   for cell in result.cells["balu"].values())

    def test_table9(self):
        result = table9_quadrisection(circuits=("balu",), scale=0.25,
                                      runs=1, lsmc_descents=1, seed=0)
        assert result.rows[0][0] == "balu"
        headers = result.headers
        assert "GORDIAN min" in headers
        assert "MLF4 min" in headers

    def test_figure4(self):
        result = figure4_ratio_tradeoff(circuits=("struct",), scale=0.12,
                                        runs=2, ratios=(1.0, 0.5), seed=0)
        assert [row[0] for row in result.rows] == [1.0, 0.5]
        assert all(row[1] > 0 for row in result.rows)

    def test_cells_exposed(self):
        result = table3_fm_vs_clip(**TINY)
        assert result.cells["balu"]["FM"].runs == 2


def _cuts(result):
    return {circuit: {name: cell.cuts for name, cell in row.items()}
            for circuit, row in result.cells.items()}


class TestPinnedCells:
    """Per-cell cut lists pinned from a serial sweep: a cell's cuts are
    a pure function of (top-level seed, circuit, algorithm name)."""

    def test_table3_cells(self):
        assert _cuts(table3_fm_vs_clip(**TINY)) == {
            "balu": {"FM": [3, 3], "CLIP": [3, 3]},
            "struct": {"FM": [13, 12], "CLIP": [16, 17]},
        }

    def test_figure4_cells(self):
        result = figure4_ratio_tradeoff(circuits=("struct",), scale=0.12,
                                        runs=2, ratios=(1.0, 0.5), seed=0)
        assert _cuts(result) == {
            "struct": {"MLC(R=1)": [10, 12], "MLC(R=0.5)": [10, 10]},
        }
        assert [row[1] for row in result.rows] == [11, 10]
