"""Iterative-improvement engines: FM, CLIP, and multi-way FM, with the
LIFO/FIFO/RANDOM gain-bucket disciplines of Section II, plus the
batched refinement engine of the ``mlb`` algorithm.

``batch_bipartition`` needs NumPy, so it resolves on first access
(:mod:`repro.lazy`): importing the exact engines never loads NumPy."""

from .buckets import (BUCKET_POLICIES, GainBuckets, LinkedListBuckets,
                      RandomBuckets, make_buckets)
from .clip import clip_bipartition, clip_config
from .config import DEFAULT_MAX_NET_SIZE, FMConfig
from .engine import FMResult, fm_bipartition
from .kway import KWAY_OBJECTIVES, KWayResult, kway_partition
from ..lazy import lazy_exports

__all__ = [
    "FMConfig",
    "DEFAULT_MAX_NET_SIZE",
    "FMResult",
    "fm_bipartition",
    "batch_bipartition",
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

__getattr__ = lazy_exports(__name__, {".npengine": ("batch_bipartition",)})
