"""Comparator algorithms: LSMC, two-phase FM, spectral bisection, the
GORDIAN quadratic-placement simulator, and the PROP probabilistic-gain
engine.

Spectral bisection and GORDIAN need NumPy and SciPy, so their names
resolve on first access (:mod:`repro.lazy`): importing LSMC, PROP or
two-phase FM never loads either library."""

from ..lazy import lazy_exports
from .lsmc import LSMCResult, kick, lsmc_bipartition, lsmc_kway
from .prop import INITIAL_MOVE_PROBABILITY, prop_bipartition
from .twophase import two_phase_fm

__all__ = [
    "LSMCResult",
    "lsmc_bipartition",
    "lsmc_kway",
    "kick",
    "two_phase_fm",
    "spectral_bipartition",
    "fiedler_vector",
    "clique_laplacian",
    "GordianResult",
    "gordian_bipartition",
    "gordian_quadrisection",
    "quadratic_placement",
    "perimeter_positions",
    "prop_bipartition",
    "INITIAL_MOVE_PROBABILITY",
]

__getattr__ = lazy_exports(__name__, {
    ".gordian": ("GordianResult", "gordian_bipartition",
                 "gordian_quadrisection", "perimeter_positions",
                 "quadratic_placement"),
    ".spectral": ("clique_laplacian", "fiedler_vector",
                  "spectral_bipartition"),
})
