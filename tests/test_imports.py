"""Import-weight contract.

The paper's ML algorithm needs no numerical library, so neither does a
default run: ``import repro.cli``, ``import repro.service.server`` and
an ``mlc`` portfolio load neither NumPy nor SciPy, the CLI and the
daemon never compile the offline obs tools, and neither loads the
compiled FM pass before its first FM call.  The NumPy-backed algorithm
(``spectral``) loads the libraries on demand and answers exactly as
when everything was imported up front.

Every check runs in a fresh interpreter, because this test process may
already hold NumPy from other tests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.hypergraph import hierarchical_circuit, write_hmetis

_SRC = str(Path(repro.__file__).resolve().parents[1])

_NUMERIC = ("numpy", "scipy")
_OFFLINE = ("repro.obs.replay", "repro.obs.diffrun", "repro.obs.summary")

#: Every module that imports NumPy or SciPy at module scope.
_EAGER = ("repro.baselines.gordian", "repro.baselines.spectral")

_PRELUDE = """
import json, sys
def loaded(*names):
    return sorted(name for name in names if name in sys.modules)
"""


def _fresh(code: str, cwd: Path, ledger: str = "off", **env_extra) -> dict:
    """Run ``code`` in a new interpreter and parse the JSON object it
    prints on its last line."""
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_LEDGER=ledger,
               **env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code)],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def netlist(tmp_path) -> str:
    path = tmp_path / "pin.hgr"
    write_hmetis(hierarchical_circuit(600, 720, seed=23, name="pin"), path)
    return str(path)


def _partition(netlist: str, algorithm: str, preload=()) -> str:
    """Code for one CLI portfolio that reports what it loaded and its
    ledger entry."""
    return f"""
        import importlib
        for name in {tuple(preload)!r}:
            importlib.import_module(name)
        from repro.cli import main
        assert main(["partition", {netlist!r}, "--algorithm",
                     {algorithm!r}, "--runs", "4", "--jobs", "2",
                     "--seed", "5"]) == 0
        heavy = loaded(*{_NUMERIC + _OFFLINE + ("repro.service",)!r})
        import os
        with open(os.environ["REPRO_LEDGER"]) as f:
            entry = json.loads(f.readline())
        import numpy
        print(json.dumps({{"heavy": heavy, "entry": entry,
                          "numpy": numpy.__version__}}))
    """


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.server"])
def test_entry_points_import_no_numeric_or_offline_module(module, tmp_path):
    # Nor the compiled FM pass: its loader runs on the first FM call,
    # so starting a command never builds or loads it.
    cache = tmp_path / "cache"
    got = _fresh(f"""
        import {module}
        print(json.dumps({{
            "numeric": loaded(*{_NUMERIC!r}),
            "offline": loaded(*{_OFFLINE!r}),
            "service": loaded("repro.service"),
            "native": loaded("repro.fm.native", "repro.fm._kernels")}}))
    """, tmp_path, XDG_CACHE_HOME=str(cache))
    assert got["numeric"] == []
    assert got["offline"] == []
    assert got["native"] == []
    assert not cache.exists()
    if module == "repro.cli":
        assert got["service"] == []


@pytest.mark.parallel
def test_mlc_portfolio_with_ledger_loads_no_numpy(netlist, tmp_path):
    ledger = str(tmp_path / "ledger.jsonl")
    got = _fresh(_partition(netlist, "mlc"), tmp_path, ledger=ledger)
    assert got["heavy"] == []
    assert got["entry"]["numpy_version"] == got["numpy"]


@pytest.mark.parallel
@pytest.mark.parametrize("algorithm", ["spectral"])
def test_numpy_algorithms_load_on_demand_with_unchanged_answers(
        algorithm, netlist, tmp_path):
    lazy = _fresh(_partition(netlist, algorithm), tmp_path,
                  ledger=str(tmp_path / "lazy.jsonl"))
    eager = _fresh(_partition(netlist, algorithm, preload=_EAGER), tmp_path,
                   ledger=str(tmp_path / "eager.jsonl"))
    assert "numpy" in lazy["heavy"]
    assert lazy["entry"]["fingerprint"] == eager["entry"]["fingerprint"]
    assert lazy["entry"]["cuts"] == eager["entry"]["cuts"]


@pytest.mark.parametrize("algorithm,engine", [
    ("spectral", "repro.baselines.spectral"),
    ("mlc", None),
])
def test_build_algorithm_imports_its_engine_before_any_fork(
        algorithm, engine, tmp_path):
    got = _fresh(f"""
        from repro.solvers import build_algorithm
        build_algorithm({algorithm!r})
        print(json.dumps(loaded(*{_EAGER + _NUMERIC!r})))
    """, tmp_path)
    if engine is None:
        assert got == []
    else:
        assert engine in got and "numpy" in got


def test_every_public_name_resolves_once(tmp_path):
    got = _fresh("""
        import importlib
        report = {}
        for package in ("repro", "repro.fm", "repro.baselines",
                        "repro.obs", "repro.harness"):
            module = importlib.import_module(package)
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            uncached = [n for n in module.__all__ if n not in vars(module)]
            try:
                getattr(module, "no_such_name")
                unknown = "resolved"
            except AttributeError:
                unknown = "AttributeError"
            report[package] = [missing, uncached, unknown]
        print(json.dumps(report))
    """, tmp_path)
    for package, (missing, uncached, unknown) in got.items():
        assert missing == [], package
        assert uncached == [], package
        assert unknown == "AttributeError", package
