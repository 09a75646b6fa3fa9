"""`repro report`: a markdown / HTML view over the run ledger.

Turns the append-only ledger (and optionally a trace file) into the
report a human actually reads after a sweep:

* **Latest runs** — the newest ledger entry per (circuit, algorithm)
  key: runs, min/median cut, wall time, git SHA;
* **Trends** — where a key has more than one recorded generation, the
  latest entry is compared against the previous one with the
  statistical comparator (median + sign test), and the verdict is
  shown instead of a raw percent delta;
* **Convergence** — when a trace file is given, the Table VIII phase
  split, the per-level refinement attribution and the cut-vs-pass
  tables of its :class:`~repro.obs.summary.TraceSummary`;
* **Decision analytics** — when a decision recording (``--record``)
  is given, the per-pass gain-distribution histogram and the
  cut-vs-decision convergence curve of its
  :class:`~repro.obs.summary.DecisionReport`.

Rendering reuses :mod:`repro.harness.formatting` — the same table
builder the paper-table harness uses — in its markdown and HTML
flavours.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from .compare import compare_samples
from .ledger import ledger_path, read_ledger
from .summary import decision_report, summarize_trace

__all__ = ["build_report", "REPORT_FORMATS"]

REPORT_FORMATS = ("markdown", "html")

Table = Tuple[str, Sequence[str], List[Sequence[object]]]


def _entry_samples(entry: Dict[str, object], field: str) -> List[float]:
    values = entry.get(field)
    if isinstance(values, list):
        return [float(v) for v in values]
    return []


def _runs_tables(entries: List[Dict[str, object]]) -> List[Table]:
    """The latest-runs and trends tables from raw ledger entries."""
    by_key: Dict[str, List[Dict[str, object]]] = {}
    for entry in entries:
        key = f"{entry.get('circuit', '?')}/{entry.get('algorithm', '?')}"
        by_key.setdefault(key, []).append(entry)

    latest_rows: List[Sequence[object]] = []
    trend_rows: List[Sequence[object]] = []
    for key in sorted(by_key):
        history = by_key[key]
        latest = history[-1]
        statuses = latest.get("statuses") or {}
        ok = statuses.get("ok", 0) if isinstance(statuses, dict) else 0
        latest_rows.append([
            key, latest.get("runs"), ok, latest.get("min_cut"),
            latest.get("median_cut"), latest.get("wall_seconds"),
            latest.get("git_sha"),
            latest.get("ts"),
        ])
        if len(history) >= 2:
            previous = history[-2]
            cut = compare_samples(key, "cut",
                                  _entry_samples(previous, "cuts"),
                                  _entry_samples(latest, "cuts"))
            wall = compare_samples(key, "wall",
                                   _entry_samples(previous, "run_wall"),
                                   _entry_samples(latest, "run_wall"),
                                   min_effect_pct=25.0)
            trend_rows.append([
                key, len(history),
                cut.baseline_median, cut.current_median,
                ("n/a" if cut.delta_pct is None
                 else f"{cut.delta_pct:+.1f}%"),
                cut.verdict,
                ("n/a" if wall.delta_pct is None
                 else f"{wall.delta_pct:+.1f}%"),
                wall.verdict,
            ])
    tables: List[Table] = [(
        "Latest runs",
        ["circuit/algorithm", "runs", "ok", "min cut", "median cut",
         "wall s", "git", "when"],
        latest_rows)]
    if trend_rows:
        tables.append((
            "Trends (latest vs previous recorded generation)",
            ["circuit/algorithm", "entries", "prev median cut",
             "median cut", "cut Δ", "cut verdict", "wall Δ",
             "wall verdict"],
            trend_rows))
    return tables


def build_report(ledger: Union[str, Path, None] = None,
                 trace: Union[str, Path, None] = None,
                 fmt: str = "markdown",
                 last: int = 50,
                 record: Union[str, Path, None] = None) -> str:
    """Assemble the report text.

    ``ledger`` defaults to the active ledger; ``last`` bounds how many
    trailing entries are read (a long-lived ledger can hold thousands).
    ``record`` adds decision analytics from a recording file.
    """
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, "
                         f"got {fmt!r}")
    from ..harness.formatting import (format_html_table,
                                      format_markdown_table)
    source = Path(ledger) if ledger is not None else ledger_path()
    entries: List[Dict[str, object]] = []
    if source is not None:
        entries = list(read_ledger(source))[-max(last, 1):]

    tables: List[Table] = []
    notes: List[str] = []
    if entries:
        tables.extend(_runs_tables(entries))
        notes.append(f"{len(entries)} ledger entr"
                     f"{'y' if len(entries) == 1 else 'ies'} read from "
                     f"`{source}`.")
    else:
        notes.append("no ledger entries found"
                     + (f" in `{source}`" if source is not None else
                        " (ledger is off)") + ".")
    if trace is not None:
        summary = summarize_trace(trace)
        conv_tables = summary.tables()
        if conv_tables:
            notes.append(f"convergence from `{trace}`: "
                         f"{summary.spans} span(s), "
                         f"{summary.ml_runs} ML run(s), "
                         f"{summary.total_seconds:.3f}s traced.")
            tables.extend(conv_tables)
        else:
            notes.append(f"no convergence telemetry in `{trace}`.")
    if record is not None:
        decisions = decision_report(record)
        dec_tables = decisions.tables()
        if dec_tables:
            walks = decisions.starts.values()
            moves = sum(len(walk.curve) for walk in walks)  # a point each
            merges = sum(len(walk.decisions) for walk in walks) - moves
            notes.append(f"decision analytics from `{record}`: "
                         f"{len(decisions.starts)} start(s), "
                         f"{moves} move(s), {merges} merge(s).")
            tables.extend(dec_tables)
        else:
            notes.append(f"no decision events in `{record}`.")

    if fmt == "markdown":
        parts = ["# repro performance report", ""]
        parts += [f"- {note}" for note in notes]
        for title, headers, rows in tables:
            parts += ["", f"## {title}", "",
                      format_markdown_table(headers, rows)]
        return "\n".join(parts) + "\n"

    body = ["<h1>repro performance report</h1>", "<ul>"]
    body += [f"<li>{note.replace('`', '')}</li>" for note in notes]
    body.append("</ul>")
    for title, headers, rows in tables:
        body.append(f"<h2>{title}</h2>")
        body.append(format_html_table(headers, rows))
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            "<title>repro performance report</title><style>"
            "body{font-family:sans-serif;margin:2em}"
            "table{border-collapse:collapse;margin:1em 0}"
            "th,td{border:1px solid #ccc;padding:0.3em 0.6em;"
            "text-align:right}th:first-child,td:first-child"
            "{text-align:left}</style></head><body>\n"
            + "\n".join(body) + "\n</body></html>\n")
