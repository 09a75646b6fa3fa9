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
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import _phase_rollup

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
