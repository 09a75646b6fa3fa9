"""Configuration for the FM-family iterative engines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from .buckets import BUCKET_POLICIES

__all__ = ["FMConfig", "DEFAULT_MAX_NET_SIZE"]

#: Nets larger than this are ignored during refinement (Section III-B);
#: they are re-included when final quality is measured.
DEFAULT_MAX_NET_SIZE = 200


@dataclass(frozen=True)
class FMConfig:
    """Knobs for :func:`repro.fm.fm_bipartition` and the k-way engine.

    Attributes
    ----------
    bucket_policy:
        Tie-breaking discipline of the gain buckets: ``"lifo"`` (the
        paper's choice), ``"fifo"``, or ``"random"`` (Section II-A).
    clip:
        Enable the CLIP preprocessing of Dutt–Deng [14]: after initial
        gains are computed, all buckets are concatenated (ordered by
        descending initial gain) into the zero bucket and the index
        range doubles, so bucket position tracks the gain *change* since
        the pass started (Section II-B).
    tolerance:
        Balance tolerance ``r``; used only when the caller does not
        supply an explicit :class:`~repro.partition.BalanceConstraint`.
    max_net_size:
        Nets with more modules than this are excluded from refinement.
    max_passes:
        Upper bound on passes; ``None`` means run until a pass fails to
        improve (the classic FM stopping rule).
    lookahead:
        Krishnamurthy-style lookahead depth ``r`` [31].  ``1`` (default)
        is plain FM selection.  For ``r > 1``, ties in the top gain
        bucket are broken by comparing level-2..r gains: the level-k
        gain of ``v`` in part A counts nets that become uncuttable-free
        after ``k`` same-side moves starting with ``v`` (positive term:
        no locked A pins and exactly ``k`` free A pins) minus nets
        whose escape potential ``v``'s move destroys (negative term: no
        locked B pins and exactly ``k - 1`` free B pins).  Combining
        ``clip=True, lookahead=3`` gives the CL-LA3 configuration of
        Dutt-Deng that Table VII compares against; the paper's own
        engines keep ``lookahead=1`` (Section II-A: LIFO negates its
        advantage for plain FM) and leave the CLIP+lookahead combination
        as future work (Section V).
    """

    bucket_policy: str = "lifo"
    clip: bool = False
    tolerance: float = 0.1
    max_net_size: int = DEFAULT_MAX_NET_SIZE
    max_passes: Optional[int] = None
    lookahead: int = 1

    def __post_init__(self):
        if self.bucket_policy not in BUCKET_POLICIES:
            raise ConfigError(
                f"bucket_policy must be one of {BUCKET_POLICIES}, got "
                f"{self.bucket_policy!r}")
        if not 0 <= self.tolerance < 1:
            raise ConfigError(
                f"tolerance must be in [0, 1), got {self.tolerance}")
        if self.max_net_size < 2:
            raise ConfigError(
                f"max_net_size must be >= 2, got {self.max_net_size}")
        if self.max_passes is not None and self.max_passes < 1:
            raise ConfigError(
                f"max_passes must be >= 1, got {self.max_passes}")
        if not 1 <= self.lookahead <= 8:
            raise ConfigError(
                f"lookahead must be in [1, 8], got {self.lookahead}")
