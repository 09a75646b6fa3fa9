"""Configuration for the ML multilevel algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..clustering.matching import MATCHING_SCHEMES
from ..errors import ConfigError
from ..fm.config import FMConfig

__all__ = ["MLConfig", "ML_ENGINES", "DEFAULT_COARSENING_THRESHOLD",
           "DEFAULT_QUAD_THRESHOLD"]

#: Refinement engines of the multilevel algorithm.
ML_ENGINES = ("fm", "clip")

#: Paper: "For all experiments, the coarsening threshold was set to
#: T = 35 modules" (Section IV).
DEFAULT_COARSENING_THRESHOLD = 35

#: Paper: quadrisection results use T = 100 (Section IV-D).
DEFAULT_QUAD_THRESHOLD = 100


@dataclass(frozen=True)
class MLConfig:
    """Knobs for :func:`repro.core.ml_bipartition` / ``ml_kway``.

    Attributes
    ----------
    coarsening_threshold:
        ``T`` of Figure 2: coarsening continues while the current
        netlist has more than ``T`` modules.
    matching_ratio:
        ``R`` of Figure 3, in ``(0, 1]``; smaller values coarsen more
        slowly, producing more hierarchy levels (Section III-A).
    engine:
        ``"fm"`` for ML_F or ``"clip"`` for ML_C (Section IV).
    matching_scheme:
        Coarsening matcher: the paper's ``"conn"``, or the ``"heavy"`` /
        ``"random"`` ablation schemes.
    fm:
        Configuration forwarded to every ``FMPartition`` refinement call
        (bucket policy, tolerance ``r``, net-size cutoff, ...).  The
        ``clip`` flag inside it is overridden by ``engine``.
    max_levels:
        Safety bound on hierarchy depth.
    coarsest_starts:
        Number of independent partitioning attempts on the coarsest
        netlist, keeping the best (Section V future work: "It may be
        worthwhile to spend more CPU time partitioning at these levels,
        e.g., by calling FM multiple times").  The coarsest netlist has
        at most ``T`` modules, so extra starts are nearly free.
    """

    coarsening_threshold: int = DEFAULT_COARSENING_THRESHOLD
    matching_ratio: float = 1.0
    engine: str = "fm"
    matching_scheme: str = "conn"
    fm: FMConfig = field(default_factory=FMConfig)
    max_levels: int = 200
    coarsest_starts: int = 1

    def __post_init__(self):
        if self.coarsening_threshold < 2:
            raise ConfigError(
                f"coarsening_threshold must be >= 2, got "
                f"{self.coarsening_threshold}")
        if not 0 < self.matching_ratio <= 1:
            raise ConfigError(
                f"matching_ratio must be in (0, 1], got "
                f"{self.matching_ratio}")
        if self.engine not in ML_ENGINES:
            raise ConfigError(
                f"engine must be one of {ML_ENGINES}, got {self.engine!r}")
        if self.matching_scheme not in MATCHING_SCHEMES:
            raise ConfigError(
                f"matching_scheme must be one of {MATCHING_SCHEMES}, got "
                f"{self.matching_scheme!r}")
        if self.max_levels < 1:
            raise ConfigError(
                f"max_levels must be >= 1, got {self.max_levels}")
        if self.coarsest_starts < 1:
            raise ConfigError(
                f"coarsest_starts must be >= 1, got "
                f"{self.coarsest_starts}")

    def engine_config(self) -> FMConfig:
        """The FM configuration with the engine's CLIP flag applied."""
        return replace(self.fm, clip=self.engine == "clip")
