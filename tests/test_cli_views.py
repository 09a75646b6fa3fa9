"""Pinned output of the offline telemetry views.

``tests/data/telemetry`` holds one traced ``repro partition`` run
(mlc, 2 runs), a short ``repro serve --trace`` daemon trace, the
ledger those partition runs wrote, and two recordings of the same
netlist and seed (mlc and mlf) that diverge at the first refinement
move CLIP and FM choose differently.  ``expected/`` holds the stdout
of ``repro trace-summary``, ``repro report`` and ``repro diff-run``
on them, byte for byte.

To re-pin after a deliberate output change, run the command from the
data directory and overwrite the expected file, e.g.
``cd tests/data/telemetry && PYTHONPATH=../../../src python -m repro
diff-run mlc.record.jsonl mlf.record.jsonl > expected/diff-run.txt``.

The two recordings predate the ``match`` and ``pass`` lists: they
write every merge and move out as its own event.  They stay as the
old-vocabulary coverage, and the same runs recorded today must read
the same through :func:`repro.obs.group_starts` and print the same
``diff-run``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import group_starts, read_record
from repro.obs.ledger import _phase_rollup

from .loops import each_loop

DATA = Path(__file__).parent / "data" / "telemetry"

VIEWS = {
    "trace-summary-partition.txt":
        ["trace-summary", "partition.trace.jsonl"],
    "trace-summary-service.txt":
        ["trace-summary", "service.trace.jsonl"],
    "report.md": ["report", "--ledger", "ledger.jsonl",
                  "--trace", "partition.trace.jsonl",
                  "--record", "mlc.record.jsonl"],
    "report.html": ["report", "--ledger", "ledger.jsonl",
                    "--trace", "partition.trace.jsonl",
                    "--record", "mlc.record.jsonl", "--format", "html"],
    "diff-run.txt": ["diff-run", "mlc.record.jsonl", "mlf.record.jsonl"],
}


@pytest.mark.parametrize("expected", sorted(VIEWS))
def test_cli_view_is_pinned(expected, monkeypatch, capsys):
    # Relative paths: the report quotes the file names it read.
    monkeypatch.chdir(DATA)
    code = main(VIEWS[expected])
    assert code == (1 if expected == "diff-run.txt" else 0)
    assert capsys.readouterr().out == \
        (DATA / "expected" / expected).read_text(encoding="utf-8")


def test_ledger_phase_rollup_of_traced_run_is_pinned():
    # The first ledger entry is the traced run's, rolled up when it ran.
    with open(DATA / "ledger.jsonl", encoding="utf-8") as f:
        entry = json.loads(f.readline())
    assert _phase_rollup(DATA / "partition.trace.jsonl") == entry["phases"]


def _record_again(algorithm, directory):
    """Re-run the fixture recording's command into ``directory``."""
    path = directory / f"{algorithm}.record.jsonl"
    assert main(["partition", str(DATA / "net.hgr"), "--algorithm",
                 algorithm, "--seed", "1", "--runs", "2",
                 "--record", str(path)]) == 0
    return path


def _grouped(path):
    """The recording's blocks as the readers see them, without the
    side-0 areas (per move in the fixtures, per pass today) and the
    long-dropped bucket gain."""
    return {start: [{k: v for k, v in ev.items() if k not in ("a0", "bg")}
                    for ev in block]
            for start, block in group_starts(read_record(path)).items()}


@pytest.mark.parametrize("algorithm", ["mlc", "mlf"])
def test_new_recording_reads_as_the_fixture(algorithm, tmp_path, capsys):
    recordings = []
    for loop in each_loop():
        directory = tmp_path / loop
        directory.mkdir()
        recordings.append(_record_again(algorithm, directory))
    fixture = DATA / f"{algorithm}.record.jsonl"
    for path in recordings:
        assert {e["t"] for e in read_record(path)}.isdisjoint(
            ("merge", "mv"))
        assert _grouped(path) == _grouped(fixture)
        # Both loops write the same bytes.
        assert path.read_bytes() == recordings[0].read_bytes()


def test_diff_run_on_new_recordings_is_pinned(tmp_path, monkeypatch,
                                              capsys):
    # Both vocabularies print the same divergence: the fixtures' pinned
    # diff-run is the diff-run of the same runs recorded today.
    for algorithm in ("mlc", "mlf"):
        _record_again(algorithm, tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(VIEWS["diff-run.txt"]) == 1
    assert capsys.readouterr().out == \
        (DATA / "expected" / "diff-run.txt").read_text(encoding="utf-8")


def test_report_on_new_recording_is_pinned(tmp_path, monkeypatch, capsys):
    _record_again("mlc", tmp_path)
    for name in ("ledger.jsonl", "partition.trace.jsonl"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(VIEWS["report.md"]) == 0
    assert capsys.readouterr().out == \
        (DATA / "expected" / "report.md").read_text(encoding="utf-8")
