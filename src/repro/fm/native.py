"""Build-on-first-use loader for the compiled level kernels
(``_kernels.c``).

:func:`load` returns the extension module that runs one ML level in C —
Match (``match``), Induce (``induce``), the partition state's
construction sweep with the gain bound (``init_state``), the flat
incidence (``incidence``) and one exact LIFO FM/CLIP pass
(``fm_pass``) — or ``None`` when it cannot be had.  Each entry point
ports a Python function that stays in the tree as its reference and
fallback and gives the same answers: ``clustering.match``,
``clustering.induce``, ``PartitionState`` and the engine's Python pass
loop choose the compiled kernel from their own arguments and the
loaded module, never from an option.

Nothing here runs at import: the first :func:`load` compiles
``_kernels.c`` with ``$CC`` (else the compiler Python was built with)
against the running interpreter's headers, into a per-user cache
directory ``${XDG_CACHE_HOME:-~/.cache}/repro/`` created with mode
0700.  The file name carries the source hash and the interpreter's ABI
tag, so an edited source or another Python builds its own module, and a
build goes to a temporary file that ``os.replace`` moves into place, so
processes racing a first build each load a complete module.  Later
loads in any process only import the cached file.

Any failure — no compiler, a failed compile, an unwritable or foreign
cache directory — is silent and final for the process: :func:`load`
returns ``None`` from then on.  A pool loads the module before it forks
(``ProcessExecutor``), so workers inherit it instead of building.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from pathlib import Path

__all__ = ["cache_dir", "load", "module_path"]

SOURCE = Path(__file__).with_name("_kernels.c")
#: Seconds a first build may take before the loader gives up.
BUILD_TIMEOUT_S = 120

_UNSET = object()
#: The loaded module, ``None`` when unavailable, ``_UNSET`` until the
#: first :func:`load`.  Tests patch it to ``None`` to force the Python
#: functions.
_module = _UNSET
_lock = threading.Lock()


def cache_dir() -> Path:
    """The per-user directory that holds built modules."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def module_path() -> Path:
    """Where the module for this source and interpreter is cached."""
    digest = hashlib.sha256(SOURCE.read_bytes()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return cache_dir() / f"_kernels-{digest}{suffix}"


def load():
    """The compiled kernel module, building it on first use; ``None``
    if it cannot be built or loaded."""
    global _module
    module = _module
    if module is _UNSET:
        with _lock:
            if _module is _UNSET:
                try:
                    _module = _load()
                except Exception:
                    _module = None
            module = _module
    return module


def _private(path: Path) -> bool:
    """``path`` belongs to this user and nobody else may write to it."""
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _load():
    path = module_path()
    if not path.exists():
        _build(path)
    if not (path.exists() and _private(path.parent) and _private(path)):
        return None
    spec = importlib.util.spec_from_file_location("repro.fm._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(path: Path) -> None:
    """Compile :data:`SOURCE` to ``path`` through a temporary file."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    directory = path.parent
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    if directory.stat().st_uid == os.getuid():
        os.chmod(directory, 0o700)
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=directory)
    os.close(fd)
    try:
        argv = [*shlex.split(cc), "-shared", "-fPIC", "-O2",
                "-ffp-contract=off", "-I", sysconfig.get_paths()["include"],
                str(SOURCE), "-o", tmp]
        if sys.platform == "darwin":
            argv += ["-undefined", "dynamic_lookup"]
        done = subprocess.run(argv, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode == 0:
            os.chmod(tmp, 0o700)
            os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
