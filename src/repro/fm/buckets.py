"""Gain bucket data structures with LIFO / FIFO / RANDOM disciplines.

The FM algorithm keeps free modules in an array of buckets indexed by
gain.  Which module is returned from the highest non-empty bucket is a
tie-breaking *policy*, and Section II-A of the paper shows the policy
matters enormously: LIFO far outperforms FIFO, and RANDOM is roughly as
good as LIFO but slower inside a linked-list implementation.

Two implementations share one interface:

* :class:`LinkedListBuckets` — an intrusive doubly-linked list over
  module-indexed arrays, O(1) insert/remove at either end.  ``lifo``
  inserts at the head, ``fifo`` at the tail; selection is always from
  the head.  This mirrors the original FM bucket description [15].
* :class:`RandomBuckets` — per-bucket arrays with swap-remove, O(1)
  arbitrary removal and O(1) uniform selection.

Gain indices may be any integer in ``[-max_gain, +max_gain]``; CLIP
doubles ``max_gain`` (Section II-B).  :func:`check_gain_bound` refuses
a ``max_gain`` whose ``2 * max_gain + 1`` buckets a C ``int`` cannot
index, before any bucket is allocated.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from ..errors import ConfigError, PartitionError
from ..rng import make_rng

__all__ = ["GainBuckets", "LinkedListBuckets", "RandomBuckets",
           "make_buckets", "check_gain_bound", "BUCKET_POLICIES"]

BUCKET_POLICIES = ("lifo", "fifo", "random")

_NIL = -1
#: The largest bucket count: the compiled pass indexes buckets by C int.
MAX_BUCKETS = 2 ** 31 - 1


def check_gain_bound(max_gain: int) -> None:
    """Refuse a gain bound whose bucket array (``2 * max_gain + 1``
    buckets) a C ``int`` cannot index — net weights too large for the
    gain buckets — with a :class:`PartitionError` naming it."""
    if 2 * max_gain + 1 > MAX_BUCKETS:
        raise PartitionError(
            f"gain bound {max_gain} needs {2 * max_gain + 1} gain "
            f"buckets, more than {MAX_BUCKETS}: the net weights are too "
            "large to refine")


class GainBuckets:
    """Interface shared by the bucket implementations."""

    def insert(self, item: int, gain: int) -> None:
        raise NotImplementedError

    def remove(self, item: int) -> None:
        raise NotImplementedError

    def update(self, item: int, new_gain: int) -> None:
        """Move ``item`` to the bucket for ``new_gain``.

        Re-insertion follows the same policy as a fresh insert, which is
        what gives LIFO its "locality" behaviour: a module whose gain
        just changed goes to the head of its new bucket and is likely to
        be selected next.
        """
        self.remove(item)
        self.insert(item, new_gain)

    def contains(self, item: int) -> bool:
        raise NotImplementedError

    def gain_of(self, item: int) -> int:
        raise NotImplementedError

    def pop_max(self) -> Optional[int]:
        """Remove and return the policy's choice from the top bucket."""
        for item in self.iter_desc():
            self.remove(item)
            return item
        return None

    def iter_desc(self) -> Iterator[int]:
        """Yield items in selection order (best bucket first).

        The structure must not be mutated while iterating, except that
        the caller may stop and then remove the last yielded item; the
        engines use this to find the best *feasible* move.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LinkedListBuckets(GainBuckets):
    """Doubly-linked bucket lists (LIFO and FIFO disciplines)."""

    __slots__ = ("_max_gain", "_lifo", "_head", "_tail", "_next", "_prev",
                 "_gain", "_present", "_size", "_top")

    def __init__(self, num_items: int, max_gain: int, policy: str = "lifo"):
        if policy not in ("lifo", "fifo"):
            raise ConfigError(
                f"LinkedListBuckets supports 'lifo'/'fifo', got {policy!r}")
        if max_gain < 0:
            raise ConfigError(f"max_gain must be >= 0, got {max_gain}")
        self._max_gain = max_gain
        self._lifo = policy == "lifo"
        width = 2 * max_gain + 1
        self._head = [_NIL] * width
        self._tail = [_NIL] * width
        self._next = [_NIL] * num_items
        self._prev = [_NIL] * num_items
        self._gain = [0] * num_items
        self._present = [False] * num_items
        self._size = 0
        self._top = -1  # highest possibly non-empty bucket index

    def _index(self, gain: int) -> int:
        idx = gain + self._max_gain
        if not 0 <= idx < 2 * self._max_gain + 1:
            raise ConfigError(f"gain {gain} outside bucket range "
                              f"[-{self._max_gain}, {self._max_gain}]")
        return idx

    def insert(self, item: int, gain: int) -> None:
        if self._present[item]:
            raise ConfigError(f"item {item} already in buckets")
        idx = self._index(gain)
        if self._lifo:
            old = self._head[idx]
            self._next[item] = old
            self._prev[item] = _NIL
            self._head[idx] = item
            if old == _NIL:
                self._tail[idx] = item
            else:
                self._prev[old] = item
        else:
            old = self._tail[idx]
            self._prev[item] = old
            self._next[item] = _NIL
            self._tail[idx] = item
            if old == _NIL:
                self._head[idx] = item
            else:
                self._next[old] = item
        self._gain[item] = gain
        self._present[item] = True
        self._size += 1
        if idx > self._top:
            self._top = idx

    def remove(self, item: int) -> None:
        if not self._present[item]:
            raise ConfigError(f"item {item} not in buckets")
        idx = self._gain[item] + self._max_gain
        nxt, prv = self._next[item], self._prev[item]
        if prv == _NIL:
            self._head[idx] = nxt
        else:
            self._next[prv] = nxt
        if nxt == _NIL:
            self._tail[idx] = prv
        else:
            self._prev[nxt] = prv
        self._present[item] = False
        self._size -= 1
        if idx == self._top and self._head[idx] == _NIL:
            self._settle_top()

    def _settle_top(self) -> None:
        # Max-gain cursor maintenance: drop ``_top`` to the highest
        # non-empty bucket so the next selection starts there instead
        # of rescanning the empty prefix.  Amortised O(1): every
        # downward step was paid for by an earlier insert that raised
        # the cursor.
        top = self._top
        head = self._head
        while top >= 0 and head[top] == _NIL:
            top -= 1
        self._top = top

    def update(self, item: int, new_gain: int) -> None:
        # One relink instead of remove() + insert(): the FM engines
        # call this once per touched pin, making it the single
        # hottest bucket operation.  Semantics are identical — the
        # item leaves its old bucket and enters the new one at the
        # policy's insertion end.
        if not self._present[item]:
            raise ConfigError(f"item {item} not in buckets")
        new_idx = self._index(new_gain)
        old_idx = self._gain[item] + self._max_gain
        head = self._head
        tail = self._tail
        nxt_a = self._next
        prv_a = self._prev
        nxt, prv = nxt_a[item], prv_a[item]
        if prv == _NIL:
            head[old_idx] = nxt
        else:
            nxt_a[prv] = nxt
        if nxt == _NIL:
            tail[old_idx] = prv
        else:
            prv_a[nxt] = prv
        if self._lifo:
            old = head[new_idx]
            nxt_a[item] = old
            prv_a[item] = _NIL
            head[new_idx] = item
            if old == _NIL:
                tail[new_idx] = item
            else:
                prv_a[old] = item
        else:
            old = tail[new_idx]
            prv_a[item] = old
            nxt_a[item] = _NIL
            tail[new_idx] = item
            if old == _NIL:
                head[new_idx] = item
            else:
                nxt_a[old] = item
        self._gain[item] = new_gain
        if new_idx > self._top:
            self._top = new_idx
        elif old_idx == self._top and head[old_idx] == _NIL:
            self._settle_top()

    def contains(self, item: int) -> bool:
        return self._present[item]

    def gain_of(self, item: int) -> int:
        if not self._present[item]:
            raise ConfigError(f"item {item} not in buckets")
        return self._gain[item]

    def iter_desc(self) -> Iterator[int]:
        # Walk from the top bucket down, each list head-first.  While
        # skipping empty buckets at the very top we also settle the
        # lazy ``_top`` pointer for future calls.
        idx = self._top
        settling = True
        head = self._head
        nxt = self._next
        while idx >= 0:
            item = head[idx]
            if item == _NIL:
                if settling:
                    self._top = idx - 1
                idx -= 1
                continue
            if settling:
                self._top = idx
                settling = False
            while item != _NIL:
                yield item
                item = nxt[item]
            idx -= 1

    def __len__(self) -> int:
        return self._size


class RandomBuckets(GainBuckets):
    """Array buckets with uniform-random selection within each bucket."""

    __slots__ = ("_max_gain", "_buckets", "_pos", "_gain", "_present",
                 "_size", "_top", "_rng")

    def __init__(self, num_items: int, max_gain: int,
                 rng: Optional[random.Random] = None):
        if max_gain < 0:
            raise ConfigError(f"max_gain must be >= 0, got {max_gain}")
        self._max_gain = max_gain
        self._buckets: List[List[int]] = [[] for _ in
                                          range(2 * max_gain + 1)]
        self._pos = [_NIL] * num_items
        self._gain = [0] * num_items
        self._present = [False] * num_items
        self._size = 0
        self._top = -1
        self._rng = rng if rng is not None else make_rng(None)

    def _index(self, gain: int) -> int:
        idx = gain + self._max_gain
        if not 0 <= idx < 2 * self._max_gain + 1:
            raise ConfigError(f"gain {gain} outside bucket range "
                              f"[-{self._max_gain}, {self._max_gain}]")
        return idx

    def insert(self, item: int, gain: int) -> None:
        if self._present[item]:
            raise ConfigError(f"item {item} already in buckets")
        idx = self._index(gain)
        bucket = self._buckets[idx]
        self._pos[item] = len(bucket)
        bucket.append(item)
        self._gain[item] = gain
        self._present[item] = True
        self._size += 1
        if idx > self._top:
            self._top = idx

    def remove(self, item: int) -> None:
        if not self._present[item]:
            raise ConfigError(f"item {item} not in buckets")
        idx = self._gain[item] + self._max_gain
        bucket = self._buckets[idx]
        pos = self._pos[item]
        last = bucket.pop()
        if last != item:
            bucket[pos] = last
            self._pos[last] = pos
        self._pos[item] = _NIL
        self._present[item] = False
        self._size -= 1

    def contains(self, item: int) -> bool:
        return self._present[item]

    def gain_of(self, item: int) -> int:
        if not self._present[item]:
            raise ConfigError(f"item {item} not in buckets")
        return self._gain[item]

    def iter_desc(self) -> Iterator[int]:
        idx = self._top
        settling = True
        while idx >= 0:
            bucket = self._buckets[idx]
            if not bucket:
                if settling:
                    self._top = idx - 1
                idx -= 1
                continue
            if settling:
                self._top = idx
                settling = False
            # A fresh random order per visit, so the first yielded item
            # is a uniform choice from the top bucket.
            order = list(bucket)
            self._rng.shuffle(order)
            yield from order
            idx -= 1

    def __len__(self) -> int:
        return self._size


def make_buckets(num_items: int, max_gain: int, policy: str,
                 rng: Optional[random.Random] = None) -> GainBuckets:
    """Factory over the three bucket disciplines of Section II-A."""
    if policy in ("lifo", "fifo"):
        return LinkedListBuckets(num_items, max_gain, policy)
    if policy == "random":
        return RandomBuckets(num_items, max_gain, rng)
    raise ConfigError(
        f"unknown bucket policy {policy!r}; expected one of "
        f"{BUCKET_POLICIES}")
