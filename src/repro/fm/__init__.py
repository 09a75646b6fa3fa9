"""Iterative-improvement engines: FM, CLIP, and multi-way FM, with the
LIFO/FIFO/RANDOM gain-bucket disciplines of Section II."""

from .buckets import (BUCKET_POLICIES, GainBuckets, LinkedListBuckets,
                      RandomBuckets, make_buckets)
from .clip import clip_bipartition, clip_config
from .config import DEFAULT_MAX_NET_SIZE, FMConfig
from .engine import FMResult, fm_bipartition
from .kway import KWAY_OBJECTIVES, KWayResult, kway_partition

__all__ = [
    "FMConfig",
    "DEFAULT_MAX_NET_SIZE",
    "FMResult",
    "fm_bipartition",
    "clip_bipartition",
    "clip_config",
    "KWayResult",
    "kway_partition",
    "KWAY_OBJECTIVES",
    "GainBuckets",
    "LinkedListBuckets",
    "RandomBuckets",
    "make_buckets",
    "BUCKET_POLICIES",
]
