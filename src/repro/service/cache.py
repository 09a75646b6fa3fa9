"""Bounded LRU caches for the service.

Two instantiations of :class:`~repro.runtime.cache.LRUCache`, the
package's one LRU (re-exported here):

* :class:`ResultCache` — fingerprint-keyed response payloads.  A hit
  turns a multi-second portfolio into a dictionary copy; the LRU bound
  keeps a long-lived daemon's memory flat.
* :class:`NetlistCache` — parsed :class:`~repro.hypergraph.Hypergraph`
  objects keyed by the protocol's netlist identity.  Sharing the *same
  object* across requests is what makes the runtime's
  :class:`~repro.runtime.HierarchyCache` (keyed on ``id(hg)``) hit
  across requests at all.

Both are thread-safe: the event loop reads the result cache while the
execution lane's worker thread populates it.
"""

from __future__ import annotations

from typing import Callable

from ..hypergraph import Hypergraph
from ..runtime.cache import LRUCache

__all__ = ["LRUCache", "ResultCache", "NetlistCache"]


class ResultCache(LRUCache):
    """Response payloads keyed by the protocol's request key.

    Values are the *stable* portion of a response (no per-request
    ``cached``/timing fields); the server copies on hit so a handler
    can annotate its copy without corrupting the cache.
    """

    def __init__(self, max_entries: int = 256):
        super().__init__(max_entries)


class NetlistCache(LRUCache):
    """Parsed netlists keyed by the protocol's netlist identity."""

    def __init__(self, max_entries: int = 32):
        super().__init__(max_entries)

    def resolve(self, key: str, load: Callable[[], Hypergraph]
                ) -> Hypergraph:
        return self.get_or_build(key, load)
