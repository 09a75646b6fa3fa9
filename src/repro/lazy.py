"""Deferred package exports (PEP 562).

A package whose ``__init__`` imported every submodule would make each
caller pay for the heaviest one: importing ``repro.baselines`` for
LSMC would load NumPy and SciPy for the spectral baseline, and
``repro.cli`` would compile the offline replay and report tools on
every command.
Packages instead name such exports in a table and install the
``__getattr__`` built here, so a name's submodule is imported on the
first access to it and never before.  The resolved value is stored in
the package namespace, so each name resolves once per process and
later accesses are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Dict[str, Sequence[str]]
                 ) -> Callable[[str], object]:
    """A module ``__getattr__`` for ``package`` resolving each name of
    ``table[submodule]`` from that (relative) submodule on first use."""
    source = {name: submodule for submodule, names in table.items()
              for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            submodule = source[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        value = getattr(importlib.import_module(submodule, package), name)
        namespace[name] = value
        return value

    return __getattr__
