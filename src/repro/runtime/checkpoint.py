"""Sweep checkpointing: stream records to JSONL, resume a killed sweep.

The paper's tables are long multi-start sweeps (20+ starts per cell,
many cells); at production scale those runs must survive the machine
dying under them.  :class:`MatrixCheckpoint` makes a
:func:`~repro.harness.run_matrix` sweep resumable at (cell, start)
granularity:

* line 1 is a **header** pinning the sweep configuration (seed, runs,
  algorithm and circuit names) — resuming with a different
  configuration raises :class:`~repro.errors.CheckpointError` instead
  of silently mixing incompatible records;
* every finished :class:`~repro.runtime.RunRecord` is appended as one
  JSON line *as it completes* (flushed and fsynced, so a ``kill -9``
  loses at most the in-flight start);
* a truncated final line — the signature of a mid-write kill — is
  ignored on load; corruption anywhere else raises.

Because every start is an independent pure function of its
position-stable seed, skipping finished (cell, start) pairs and running
the rest reproduces the uninterrupted sweep's outcomes exactly (the
fingerprint contract tested in ``tests/test_faults.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import CheckpointError, ReproError
from ..obs.events import read_jsonl
from .records import RunRecord

__all__ = ["MatrixCheckpoint"]

_VERSION = 1

CellKey = Tuple[str, str]  # (circuit name, algorithm name)


class MatrixCheckpoint:
    """Append-only JSONL checkpoint of a ``run_matrix`` sweep."""

    def __init__(self, path: Union[str, Path], *, seed: object, runs: int,
                 algorithms: List[str], circuits: List[str]):
        self.path = Path(path)
        self._header = {"kind": "header", "version": _VERSION,
                        "seed": str(seed), "runs": runs,
                        "algorithms": list(algorithms),
                        "circuits": list(circuits)}
        self._done: Dict[CellKey, Dict[int, RunRecord]] = {}
        self.resumed = self.path.exists() and self.path.stat().st_size > 0
        if self.resumed:
            self._load()
        self._fh = open(self.path, "a", encoding="utf-8")
        if not self.resumed:
            self._append(self._header)

    # ------------------------------------------------------------------

    def _load(self) -> None:
        # Strict reading: a partial trailing record (killed mid-write)
        # was never acknowledged, so dropping it is safe; corruption
        # anywhere else is refused.
        try:
            entries = list(read_jsonl(self.path, strict=True,
                                      kind="checkpoint"))
        except ReproError as exc:
            raise CheckpointError(str(exc)) from None
        if not entries:
            raise CheckpointError(f"{self.path}: checkpoint has no header")
        header = entries[0]
        if header.get("kind") != "header":
            raise CheckpointError(
                f"{self.path}: first line is not a checkpoint header")
        for key in ("version", "seed", "runs", "algorithms", "circuits"):
            if header.get(key) != self._header[key]:
                raise CheckpointError(
                    f"{self.path}: checkpoint {key} {header.get(key)!r} "
                    f"does not match this sweep's {self._header[key]!r}; "
                    "refusing to resume")
        for number, entry in enumerate(entries[1:], start=2):
            if entry.get("kind") != "record":
                raise CheckpointError(
                    f"{self.path}: unexpected entry kind "
                    f"{entry.get('kind')!r} in entry {number}")
            record = RunRecord.from_json_dict(entry["record"])
            cell = self._done.setdefault(
                (entry["circuit"], entry["algorithm"]), {})
            cell[record.index] = record

    def _append(self, entry: dict) -> None:
        self._fh.write(json.dumps(entry) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------

    @property
    def finished_starts(self) -> int:
        """Total (cell, start) pairs already on disk."""
        return sum(len(cell) for cell in self._done.values())

    def done(self, circuit: str, algorithm: str) -> Dict[int, RunRecord]:
        """Finished records for one cell: ``{start index: record}``."""
        return dict(self._done.get((circuit, algorithm), {}))

    def write(self, circuit: str, algorithm: str,
              record: RunRecord) -> None:
        """Persist one newly finished record (flushed immediately)."""
        self._append({"kind": "record", "circuit": circuit,
                      "algorithm": algorithm,
                      "record": record.to_json_dict()})
        self._done.setdefault((circuit, algorithm), {})[record.index] = \
            record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "MatrixCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
