"""The paper's primary contribution: the ML multilevel partitioner and
its quadrisection extension.  Multistart runs go through
:class:`repro.runtime.Portfolio`."""

from .config import (DEFAULT_COARSENING_THRESHOLD, DEFAULT_QUAD_THRESHOLD,
                     MLConfig)
from .ml import Hierarchy, MLResult, build_hierarchy, ml_bipartition
from .quadrisection import (MLKWayResult, default_quad_config, ml_kway,
                            ml_quadrisection)
from .recursive import recursive_bisection
from .vcycle import VCycleResult, ml_vcycle

__all__ = [
    "MLConfig",
    "DEFAULT_COARSENING_THRESHOLD",
    "DEFAULT_QUAD_THRESHOLD",
    "MLResult",
    "ml_bipartition",
    "build_hierarchy",
    "Hierarchy",
    "MLKWayResult",
    "ml_kway",
    "ml_quadrisection",
    "default_quad_config",
    "recursive_bisection",
    "ml_vcycle",
    "VCycleResult",
]
