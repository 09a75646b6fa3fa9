"""Seeded random-number helpers.

Every stochastic component in this library takes an explicit ``seed`` (or
an already-constructed :class:`random.Random`), so that each experiment in
the paper's tables is exactly reproducible.  These helpers centralise the
conventions:

* :func:`make_rng` normalises "seed or Random or None" arguments.
* :func:`child_seeds` derives independent per-run seeds for multistart
  experiments, so run *i* of an algorithm is the same regardless of how
  many total runs were requested.
* :func:`random_permutation` is the one random order every module visit
  takes (Match, the random initial partition, random rebalancing); it
  runs compiled and gives ``shuffle``'s answer.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from typing import Iterable, List, Optional, Union

SeedLike = Union[int, random.Random, None]

#: Modulus used when deriving child seeds; any large prime-ish bound works,
#: it only needs to keep seeds inside a stable integer range.
_SEED_BOUND = 2**63 - 1


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``seed`` may be an ``int`` (deterministic), an existing ``Random``
    (returned unchanged, so state is shared deliberately), or ``None``
    (OS-entropy seeded).
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def child_seeds(seed: SeedLike, count: int) -> List[int]:
    """Derive ``count`` independent child seeds from ``seed``.

    The derivation is position-stable: extending ``count`` keeps earlier
    seeds unchanged, which lets "10 runs" be a strict prefix of "100 runs"
    (the paper reports both for MLc in Table VII).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = make_rng(seed)
    return [rng.randrange(_SEED_BOUND) for _ in range(count)]


def stable_seed(*parts: object) -> int:
    """Deterministic seed from arbitrary labels, stable across processes.

    Python's built-in ``hash()`` of strings is salted per process
    (PYTHONHASHSEED), so experiment seeds derived from circuit or
    algorithm names must go through a real hash instead.
    """
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % _SEED_BOUND


def random_permutation(n: int, rng: random.Random) -> array:
    """Return a uniformly random permutation of ``range(n)``: what
    ``rng.shuffle(list(range(n)))`` makes of it, as an ``array('i')``,
    with ``rng`` left in the state ``shuffle`` leaves it in.

    For a plain :class:`random.Random` the compiled ``shuffle`` kernel
    (:mod:`repro.fm.native`) draws it when the kernel module loads: it
    takes the generator's 32-bit outputs in bulk and applies
    ``shuffle``'s rejection rule to them, so the order and the
    generator's next draw are the same bit for bit (DESIGN.md §8).  A
    subclass may draw differently, so it runs ``shuffle`` itself.
    """
    kernel = None
    if type(rng) is random.Random:
        from .fm.native import load
        kernel = load()
    if kernel is None:
        order = list(range(n))
        rng.shuffle(order)
        return array("i", order)
    perm = array("i", [0]) * n
    kernel.shuffle(perm, rng.getrandbits)
    return perm


def spawn(rng: random.Random) -> random.Random:
    """Return a new independent ``Random`` derived from ``rng``'s stream."""
    return random.Random(rng.randrange(_SEED_BOUND))


def choice_weighted(items: Iterable[int], weights: Iterable[float],
                    rng: random.Random) -> Optional[int]:
    """Weighted choice that returns ``None`` for an empty population."""
    population = list(items)
    if not population:
        return None
    return rng.choices(population, weights=list(weights), k=1)[0]
