"""The compiled level kernels' loader (:mod:`repro.fm.native`).

The first :func:`~repro.fm.native.load` in a process builds
``_kernels.c`` into a per-user cache, later ones import the cached
module, and any failure leaves every caller on its Python function with
the same answers.
Every build here runs in a fresh interpreter against an empty cache
directory of its own (``XDG_CACHE_HOME``), so the user's cache is never
touched.
"""

import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.fm import fm_bipartition, native
from repro.hypergraph import hierarchical_circuit

from .loops import compiled_available

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Run in a fresh interpreter: load the pass (after ``go`` appears, when
#: given), then print what loaded and one FM answer on each loop.
_PROBE = """
import json, os, sys, time
go = os.environ.get("PROBE_GO")
while go and not os.path.exists(go):
    time.sleep(0.001)
from repro.fm import fm_bipartition, native
from repro.hypergraph import hierarchical_circuit
module = native.load()
hg = hierarchical_circuit(300, 360, seed=2024)
answers = {}
for loop in ("c", "py"):
    if loop == "py":
        native._module = None
    r = fm_bipartition(hg, seed=5)
    answers[loop] = [r.cut, list(r.partition.assignment)]
print(json.dumps({"file": getattr(module, "__file__", None),
                  "answers": answers}))
"""


def _env(cache: Path, **extra) -> dict:
    env = dict(os.environ, PYTHONPATH=_SRC, XDG_CACHE_HOME=str(cache),
               REPRO_LEDGER="off")
    env.update(extra)
    return env


def _probe(cache: Path, **extra) -> dict:
    proc = subprocess.run([sys.executable, "-c", _PROBE],
                          env=_env(cache, **extra), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def _reference():
    hg = hierarchical_circuit(300, 360, seed=2024)
    r = fm_bipartition(hg, seed=5)
    return [r.cut, list(r.partition.assignment)]


needs_cc = pytest.mark.skipif(not compiled_available(),
                              reason="no C compiler for the compiled pass")


@needs_cc
def test_racing_first_builds_load_one_module(tmp_path):
    go = tmp_path / "go"
    procs = [subprocess.Popen([sys.executable, "-c", _PROBE],
                              env=_env(tmp_path / "cache",
                                       PROBE_GO=str(go)),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for _ in range(2)]
    outs = []
    try:
        time.sleep(0.5)  # both interpreters up and waiting
        go.touch()
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outs.append(json.loads(out.splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    files = {out["file"] for out in outs}
    assert len(files) == 1 and None not in files
    built = sorted(p.name for p in (tmp_path / "cache" / "repro").iterdir())
    assert built == [Path(files.pop()).name]  # no temporary left behind
    for out in outs:
        assert out["answers"]["c"] == out["answers"]["py"] == _reference()


@needs_cc
def test_cache_is_private_and_reused(tmp_path):
    first = _probe(tmp_path / "cache")
    path = Path(first["file"])
    assert path.parent == tmp_path / "cache" / "repro"
    assert stat.S_IMODE(path.parent.stat().st_mode) == 0o700
    assert not path.stat().st_mode & 0o022
    built = path.stat().st_mtime_ns
    assert _probe(tmp_path / "cache")["file"] == str(path)
    assert path.stat().st_mtime_ns == built  # loaded, not rebuilt


@needs_cc
def test_shared_cache_directory_is_refused(tmp_path):
    first = _probe(tmp_path / "cache")
    directory = Path(first["file"]).parent
    directory.chmod(0o777)
    try:
        refused = _probe(tmp_path / "cache")
    finally:
        directory.chmod(0o700)
    assert refused["file"] is None
    assert refused["answers"]["py"] == first["answers"]["c"]


def test_failed_compile_falls_back_silently(tmp_path):
    got = _probe(tmp_path / "cache", CC="false")
    assert got["file"] is None
    assert got["answers"]["c"] == got["answers"]["py"] == _reference()
    leftovers = tmp_path / "cache" / "repro"
    assert not leftovers.exists() or not list(leftovers.iterdir())


def test_load_is_memoised():
    assert native.load() is native.load()


@needs_cc
def test_module_holds_the_level_pipeline():
    module = native.load()
    for name in ("match", "induce", "init_state", "incidence", "fm_pass",
                 "read_hmetis", "shuffle"):
        assert callable(getattr(module, name)), name


@pytest.mark.parallel
def test_pool_loads_the_pass_before_it_forks(monkeypatch):
    # The parent resolves the loader before forking its workers, so
    # they inherit the result instead of each building or loading.
    from repro.runtime import Portfolio, execute
    from repro.solvers import build_algorithm
    calls = []

    def fake_load():
        calls.append(os.getpid())

    monkeypatch.setattr(native, "_module", native._UNSET)
    monkeypatch.setattr(native, "_load", fake_load)
    hg = hierarchical_circuit(120, 150, seed=5)
    result = execute(Portfolio(build_algorithm("mlc"), hg, runs=2, seed=1),
                     jobs=2)
    assert calls == [os.getpid()]
    assert native._module is None  # what the fake load returned
    assert len(result.cuts) == 2


@needs_cc
def test_pass_rejects_mismatched_buffers():
    from array import array
    hg = hierarchical_circuit(40, 50, seed=1)
    n, m = hg.num_modules, hg.num_nets
    xpins, pins, xinc, inc, weights, areas = hg.active_csr(None)

    def call(**override):
        args = dict(part_of=array("i", [0] * n), c0=array("i", [0] * m),
                    c1=array("i", [0] * m), spans=array("i", [0] * m),
                    part_area=array("d", [0.0, 0.0]), xpins=xpins,
                    pins=pins, xinc=xinc, inc=inc, weights=weights,
                    areas=areas, fixed=bytes(n),
                    moves=array("i", [0] * (3 * n)))
        args.update(override)
        return native.load().fm_pass(*args.values(), 0, 4, 0.0, 40.0, 0, 0)

    with pytest.raises(ValueError, match="c1"):
        call(c1=array("i", [0] * (m + 1)))
    with pytest.raises(ValueError, match="areas"):
        call(areas=array("i", [1] * n))
    with pytest.raises(ValueError, match="fixed"):
        call(fixed=bytes(n - 1))
    with pytest.raises(ValueError, match="offsets"):
        call(pins=pins[:-1])
    with pytest.raises(TypeError):
        call(part_of=[0] * n)


@needs_cc
def test_level_kernels_reject_malformed_buffers():
    from array import array
    module = native.load()
    hg = hierarchical_circuit(40, 50, seed=1)
    xpins, pins, weights, areas = hg.flat
    n, m = hg.num_modules, hg.num_nets

    def state(netlist=(xpins, pins, weights, areas), part_of=None):
        return module.init_state(
            *netlist, part_of or array("i", [0]) * n,
            array("i", [0]) * m, array("i", [0]) * m, array("i", [0]) * m,
            array("d", [0.0, 0.0]), -1)

    assert state()[0] == 0  # well formed: nothing cut
    bad_pin = array("i", pins)
    bad_pin[3] = n
    with pytest.raises(ValueError, match="not a module"):
        state((xpins, bad_pin, weights, areas))
    with pytest.raises(ValueError, match="xpins"):
        state((xpins, pins[:-1], weights, areas))
    with pytest.raises(ValueError, match="weights"):
        state((xpins, pins, array("i", weights), areas))
    with pytest.raises(ValueError, match="not a side"):
        state(part_of=array("i", [2]) * n)
    with pytest.raises(ValueError, match="perm"):
        module.match(xpins, pins, weights, areas, array("i", [n]) * n,
                     None, 0, 1.0, 10, array("i", [0]) * n,
                     array("i", [0]) * (2 * n))
    with pytest.raises(ValueError, match="cluster_of"):
        module.induce(xpins, pins, weights, areas, array("i", [5]) * n,
                      array("i", [0]) * (m + 1), array("i", [0]) * len(pins),
                      array("q", [0]) * m, array("d", [0.0]) * 5)
