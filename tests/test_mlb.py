"""The ``mlb`` algorithm: a named configuration, never a hidden mode.

``mlb`` is ML with the batch refinement engine of
:mod:`repro.fm.npengine` (``MLConfig.engine="batch"``).  These tests
pin how it is reached — solvers, CLI, service protocol — and that it
fails loudly where it does not apply.  Its golden answers live in
``tests/test_kernels.py`` next to the exact engines'; the mlc-vs-mlb
divergence pin lives in ``tests/test_recorder.py``.
"""

import asyncio
import json

import pytest

from repro.cli import main
from repro.core.config import ML_ENGINES, MLConfig
from repro.core.quadrisection import ml_kway
from repro.errors import ConfigError, ReproError
from repro.hypergraph import hierarchical_circuit, write_json
from repro.obs import build_report, read_ledger
from repro.solvers import ALGORITHMS, build_algorithm, ml_config_for, \
    single_run

#: The ledger field a process-global kernel mode used to stamp into
#: every entry; spelled in two parts so no live source line names it.
_LEGACY_LEDGER_FIELD = "_".join(("kernel", "mode"))


@pytest.fixture(scope="module")
def hier300():
    return hierarchical_circuit(300, 360, seed=2024, name="hier300")


class TestNaming:
    def test_listed_next_to_the_paper_algorithms(self):
        assert ALGORITHMS[:3] == ("mlc", "mlf", "mlb")
        assert "batch" in ML_ENGINES
        assert ml_config_for("mlb").engine == "batch"
        assert ml_config_for("mlc").engine == "clip"
        assert ml_config_for("mlf").engine == "fm"

    def test_unknown_engine_is_a_config_error(self):
        with pytest.raises(ConfigError):
            MLConfig(engine="numpy")

    def test_batch_levels_below_the_floor_run_clip(self):
        # Levels under 128 modules go to the exact engine, with CLIP.
        assert MLConfig(engine="batch").engine_config().clip is True
        assert MLConfig(engine="fm").engine_config().clip is False


class TestKWayRejected:
    def test_single_run_names_the_error(self, tiny_hg):
        with pytest.raises(ReproError, match="mlb"):
            single_run("mlb", tiny_hg, k=4)

    def test_ml_kway_rejects_batch_engine(self, tiny_hg):
        with pytest.raises(ConfigError, match="2-way"):
            ml_kway(tiny_hg, k=2, config=MLConfig(engine="batch"))

    def test_cli_exits_2(self, tiny_hg, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        write_json(tiny_hg, str(path))
        assert main(["partition", str(path), "-k", "4",
                     "--algorithm", "mlb"]) == 2
        assert "mlb" in capsys.readouterr().err


class TestCLI:
    def test_partition_mlb_matches_library(self, hier300, tmp_path,
                                           capsys):
        from repro.runtime import Portfolio, execute
        path = tmp_path / "hier300.json"
        write_json(hier300, str(path))
        assert main(["partition", str(path), "--algorithm", "mlb",
                     "--runs", "3", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        expected = execute(Portfolio(build_algorithm("mlb"), hier300,
                                     runs=3, seed=4))
        assert f"all cuts:   {expected.cuts}" in out


class TestService:
    def _serve(self, bodies):
        from repro.service import ServiceEngine
        from repro.service.protocol import PartitionRequest
        engine = ServiceEngine(jobs=1)

        async def run():
            engine.start()
            try:
                return [await engine.serve(PartitionRequest.from_json(b))
                        for b in bodies]
            finally:
                await engine.drain(10)

        return asyncio.run(run())

    def test_request_keys_split_on_algorithm_only(self):
        from repro.service.protocol import PartitionRequest
        body = {"netlist": {"generate": {"name": "primary1",
                                         "scale": 0.05, "seed": 1}},
                "runs": 2, "seed": 3}
        keys = {alg: PartitionRequest.from_json(
            dict(body, algorithm=alg)).config_key()
            for alg in ("mlc", "mlb")}
        assert keys["mlc"] != keys["mlb"]
        assert set(keys["mlc"]) == set(keys["mlb"])
        assert "kernels" not in keys["mlc"]

    def test_ml_reuse_accepts_mlb(self):
        body = {"netlist": {"generate": {"name": "primary1",
                                         "scale": 0.3, "seed": 1}},
                "algorithm": "mlb", "mode": "ml-reuse", "runs": 2,
                "seed": 3}
        (payload,) = self._serve([body])
        assert len(payload["cuts"]) == 2
        assert payload["min_cut"] == min(payload["cuts"])


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

    def test_new_ledger_lines_carry_no_mode(self, hier300, tmp_path,
                                            monkeypatch):
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        path = tmp_path / "hier300.json"
        write_json(hier300, str(path))
        assert main(["partition", str(path), "--algorithm", "mlb",
                     "--seed", "2"]) == 0
        (entry,) = read_ledger(ledger)
        assert entry["algorithm"] == "mlb"
        assert _LEGACY_LEDGER_FIELD not in entry
