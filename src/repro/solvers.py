"""Name-to-algorithm resolution shared by the CLI and the service.

The CLI's ``repro partition`` and the daemon's ``POST /partition`` must
produce *fingerprint-identical* results for the same (netlist, config,
seed) — that is the service's correctness contract, and the only way to
guarantee it is for both to build their runnable from the same code.
This module is that one place: :func:`single_run` maps an algorithm
name plus the paper's knobs to one seeded execution, and
:func:`build_algorithm` wraps it as the :class:`~repro.runtime.Algorithm`
the portfolio runtime consumes.

Only ``mlb`` and ``spectral`` need NumPy (and SciPy): their engines are
read off the :mod:`repro.fm` and :mod:`repro.baselines` packages, which
import them on first use, so the other algorithms never load either
library.  The daemon's default port lives here too, so the CLI can
build its parser without importing the service.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from . import baselines
from .baselines.lsmc import lsmc_bipartition
from .core.config import MLConfig
from .core.ml import ml_bipartition
from .core.quadrisection import ml_kway
from .core.vcycle import ml_vcycle
from .errors import ReproError
from .fm.config import FMConfig
from .fm.engine import fm_bipartition
from .hypergraph import Hypergraph
from .runtime.job import Algorithm

__all__ = ["ALGORITHMS", "ML_ENGINE_OF", "DEFAULT_PORT", "single_run",
           "build_algorithm", "ml_config_for"]

#: TCP port ``repro serve`` binds and the client commands dial by default.
DEFAULT_PORT = 8349

#: Algorithm names accepted by the CLI and the service protocol.
ALGORITHMS = ("mlc", "mlf", "mlb", "fm", "clip", "lsmc", "spectral")

#: The multilevel algorithms and their ``MLConfig.engine``: ML_C and
#: ML_F are the paper's; ``mlb`` refines with the batch engine
#: (DESIGN.md §13).
ML_ENGINE_OF = {"mlc": "clip", "mlf": "fm", "mlb": "batch"}

#: The algorithms whose engine module imports NumPy, and that module.
_NUMPY_ENGINES = {"mlb": ".fm.npengine", "spectral": ".baselines.spectral"}


def ml_config_for(algorithm: str, ratio: float = 0.5, threshold: int = 35,
                  tolerance: float = 0.1, k: int = 0) -> MLConfig:
    """The :class:`MLConfig` a multilevel algorithm name resolves to.

    ``k`` raises the coarsening floor for k-way runs (a hierarchy must
    bottom out with at least k clusters); bipartitioning passes no k
    and keeps the threshold untouched.
    """
    return MLConfig(engine=ML_ENGINE_OF.get(algorithm, "fm"),
                    matching_ratio=ratio,
                    coarsening_threshold=max(threshold, k),
                    fm=FMConfig(tolerance=tolerance))


def single_run(algorithm: str, hg: Hypergraph, k: int = 2,
               ratio: float = 0.5, threshold: int = 35,
               tolerance: float = 0.1, descents: int = 20,
               seed: int = 0, vcycles: int = 0):
    """One seeded run of ``algorithm`` on ``hg`` with the paper's knobs.

    Raises :class:`ReproError` for unknown names or invalid
    algorithm/k combinations — the shared validation both entry points
    rely on.
    """
    fm_config = FMConfig(tolerance=tolerance)
    if k != 2:
        if algorithm == "mlb":
            raise ReproError(
                f"k={k}: mlb's batch engine refines bipartitions only; "
                f"use mlc/mlf for k-way")
        if algorithm not in ("mlc", "mlf"):
            raise ReproError(
                f"k={k} requires a multilevel algorithm (mlc/mlf), "
                f"got {algorithm!r}")
        config = ml_config_for(algorithm, ratio, threshold, tolerance, k=k)
        return ml_kway(hg, k=k, config=config, seed=seed)
    if algorithm in ML_ENGINE_OF:
        config = ml_config_for(algorithm, ratio, threshold, tolerance)
        if vcycles > 0:
            return ml_vcycle(hg, cycles=vcycles, config=config, seed=seed)
        return ml_bipartition(hg, config=config, seed=seed)
    if algorithm == "fm":
        return fm_bipartition(hg, config=fm_config, seed=seed)
    if algorithm == "clip":
        return fm_bipartition(
            hg, config=FMConfig(clip=True, tolerance=tolerance), seed=seed)
    if algorithm == "lsmc":
        return lsmc_bipartition(hg, descents=descents, config=fm_config,
                                seed=seed)
    if algorithm == "spectral":
        return baselines.spectral_bipartition(hg, config=fm_config,
                                              seed=seed)
    raise ReproError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class _SingleRun:
    """``fn(hg, seed)`` for :func:`build_algorithm`: a module-level
    callable rather than a closure, so an :class:`Algorithm` built here
    pickles and can be shipped to a live worker pool."""

    algorithm: str
    k: int
    ratio: float
    threshold: int
    tolerance: float
    descents: int
    vcycles: int

    def __call__(self, hg: Hypergraph, seed: int):
        return single_run(self.algorithm, hg, k=self.k, ratio=self.ratio,
                          threshold=self.threshold,
                          tolerance=self.tolerance, descents=self.descents,
                          seed=seed, vcycles=self.vcycles)


def build_algorithm(algorithm: str, k: int = 2, ratio: float = 0.5,
                    threshold: int = 35, tolerance: float = 0.1,
                    descents: int = 20, vcycles: int = 0) -> Algorithm:
    """An :class:`Algorithm` running :func:`single_run` with these knobs.

    The returned object's ``name`` is the bare algorithm name — what
    the CLI has always recorded in the ledger — so service-run and
    CLI-run portfolios of the same cell aggregate together.  It pickles.

    A NumPy-backed algorithm's engine is imported here, in the caller:
    a worker pool forked after this inherits it instead of every worker
    importing NumPy for itself.
    """
    if algorithm not in ALGORITHMS:
        raise ReproError(f"unknown algorithm {algorithm!r} "
                         f"(expected one of {', '.join(ALGORITHMS)})")
    if algorithm in _NUMPY_ENGINES:
        importlib.import_module(_NUMPY_ENGINES[algorithm], __package__)
    return Algorithm(algorithm, _SingleRun(algorithm, k, ratio, threshold,
                                           tolerance, descents, vcycles))
