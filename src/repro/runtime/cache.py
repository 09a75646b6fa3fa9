"""Bounded, thread-safe LRU caches.

:class:`LRUCache` is the one LRU in the package: the service's result
and netlist caches and the runtime's :class:`HierarchyCache` are all
built on it, so every cache reports the same :meth:`LRUCache.stats`.

Coarsening is the per-start fixed cost of multilevel partitioning: a
multi-start portfolio on one (circuit, config) pair rebuilds the same
kind of hierarchy N times.  :class:`HierarchyCache` builds it once per
key and hands the same (read-only) :class:`Hierarchy` to every start —
refinement only projects and refines, it never mutates the coarse
netlists, which the test suite pins with a deep-equality check.

Hierarchy keys combine the netlist's identity with the ML configuration
and the hierarchy seed.  ``id(hg)`` keeps two live netlists distinct
even when a generator reuses a name; the structural fields guard
against id reuse after garbage collection.
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, TypeVar

from ..core.config import MLConfig
from ..core.ml import Hierarchy, build_hierarchy
from ..errors import ConfigError
from ..hypergraph import Hypergraph
from ..rng import SeedLike

__all__ = ["LRUCache", "HierarchyCache", "default_hierarchy_cache"]

V = TypeVar("V")


class LRUCache:
    """A small thread-safe LRU with hit/miss/eviction counters."""

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """Return the cached value, building (under the lock's *miss*
        accounting but outside the lock itself) when absent.

        Two threads may race to build the same entry; the second put
        simply overwrites with an equivalent value — correctness never
        depends on single-build, only the counters do, and they are
        advisory.
        """
        value = self.get(key)
        if value is None:
            value = build()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._entries),
                    "max_entries": self.max_entries,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


class HierarchyCache:
    """A small LRU mapping (netlist, config, seed) -> built hierarchy,
    kept in an :class:`LRUCache` (``entries``)."""

    def __init__(self, max_entries: int = 8):
        self.entries = LRUCache(max_entries)

    def get(self, hg: Hypergraph, config: Optional[MLConfig] = None,
            seed: SeedLike = 0) -> Hierarchy:
        """The hierarchy for ``(hg, config, seed)``, building on miss."""
        config = config or MLConfig()
        if isinstance(seed, random.Random):
            # A live stream is stateful; caching it would alias state.
            return build_hierarchy(hg, config, rng=seed)
        key = (id(hg), hg.name, hg.num_modules, hg.num_nets, config, seed)
        return self.entries.get_or_build(
            key, lambda: build_hierarchy(hg, config, seed=seed))

    @property
    def hits(self) -> int:
        return self.entries.hits

    @property
    def misses(self) -> int:
        return self.entries.misses

    def stats(self) -> Dict[str, int]:
        return self.entries.stats()

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


#: Process-wide cache used by :func:`repro.runtime.ml_portfolio` when
#: the caller does not supply one.
default_hierarchy_cache = HierarchyCache()
