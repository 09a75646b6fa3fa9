"""NumPy view of a hypergraph's incidence.

:class:`NumpyIncidence` materialises one
:class:`~repro.hypergraph.Hypergraph` as ndarrays — straight from a
flat build's own pin arrays, or from the kernel lists of a tuple build —
plus the handful of derived arrays the vectorized kernels share:

* ``pins_flat`` / ``xpins`` — net ``e``'s pins are
  ``pins_flat[xpins[e]:xpins[e+1]]`` (hypergraph pin order).
* ``net_ids`` — per-pin net id, i.e. ``repeat(arange(m), net_sizes)``;
  the companion column that turns per-pin sweeps into ``bincount`` /
  ``add.at`` reductions.
* ``nets_flat`` / ``xnets`` — module ``v``'s incident nets.
* ``net_weights`` / ``net_sizes`` (int64) and ``areas`` (float64).

The view is built lazily on first access to ``Hypergraph.np`` and
cached for the netlist's lifetime, like every other per-netlist cache.
Per-threshold products (the active-net mask and the *effective weight*
vector — net weights with inactive nets zeroed, so kernels never test
an ``active[e]`` flag) are cached per ``max_net_size`` exactly like
``Hypergraph.active_nets``.

Its users are the ``mlb`` algorithm's batch engine
(:mod:`repro.fm.npengine`) and the vectorized coarsening that feeds it
(``match``/``induce`` with ``vectorized=True``).  Arithmetic contract
(DESIGN.md §13): the kernels implemented here are pure integer
counting, so their results are bit-identical to the scalar kernels
regardless of reduction order.  Float accumulations that must match
the scalar kernels bit-for-bit (matching scores, cluster areas) are
*not* hosted here — they live with their call sites and use
``np.add.at``/``np.bincount``, whose element-order C loops reproduce
the scalar accumulation order (``np.sum``/``reduceat`` pairwise
summation would not).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["NumpyIncidence"]


class NumpyIncidence:
    """Read-only ndarray incidence view over one immutable hypergraph."""

    __slots__ = ("num_modules", "num_nets", "num_pins",
                 "xpins", "pins_flat", "xnets", "nets_flat",
                 "net_ids", "net_weights", "net_sizes", "areas",
                 "_mask_cache", "_weff_cache", "_pinw_cache",
                 "_weffl_cache", "_xnets_l", "_nets_flat_l")

    def __init__(self, hg) -> None:
        self.num_modules = hg.num_modules
        self.num_nets = hg.num_nets
        self.num_pins = hg.num_pins
        self.net_weights = np.asarray(hg.weights_list, dtype=np.int64)
        self.areas = np.asarray(hg.areas_list, dtype=np.float64)
        flat = hg._flat
        if flat is not None:
            # A flat build (vectorized Induce) already holds the pin
            # arrays; reading them skips the tuple layout entirely.
            self.xpins = np.asarray(flat[0], dtype=np.int64)
            self.pins_flat = np.asarray(flat[1], dtype=np.intc)
            self.net_sizes = self.xpins[1:] - self.xpins[:-1]
        else:
            self.net_sizes = np.asarray(hg.sizes_list, dtype=np.int64)
            self.pins_flat = np.fromiter(
                chain.from_iterable(hg.net_pins), dtype=np.intc,
                count=self.num_pins)
            self.xpins = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(self.net_sizes)))
        self.net_ids = np.repeat(
            np.arange(self.num_nets, dtype=np.intc), self.net_sizes)

        # Per-module incident nets: sorting (pin, net) pairs by module
        # then net reproduces ``module_nets`` exactly, because each
        # module's net list is ascending by construction.
        order = np.lexsort((self.net_ids, self.pins_flat))
        self.nets_flat = self.net_ids[order]
        degrees = np.bincount(self.pins_flat, minlength=self.num_modules)
        self.xnets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(degrees)))

        self._mask_cache: Dict[Optional[int], np.ndarray] = {}
        self._weff_cache: Dict[Optional[int], np.ndarray] = {}
        self._pinw_cache: Dict[Optional[int], np.ndarray] = {}
        self._weffl_cache: Dict[Optional[int], list] = {}
        self._xnets_l: Optional[list] = None
        self._nets_flat_l: Optional[list] = None

    # ------------------------------------------------------------------
    # Per-threshold caches (the FM active-net contract, Section III-B).
    # ------------------------------------------------------------------

    def active_mask(self, max_net_size: Optional[int]) -> np.ndarray:
        """Boolean per-net mask: net is refined (size ≤ threshold)."""
        cached = self._mask_cache.get(max_net_size)
        if cached is None:
            if max_net_size is None:
                cached = np.ones(self.num_nets, dtype=bool)
            else:
                cached = self.net_sizes <= max_net_size
            self._mask_cache[max_net_size] = cached
        return cached

    def effective_weights(self, max_net_size: Optional[int]) -> np.ndarray:
        """Net weights with inactive nets zeroed (int64).

        Zero weight and "excluded from refinement" are arithmetically
        interchangeable everywhere gains and internal cuts are summed,
        so kernels multiply by this vector instead of masking.
        """
        cached = self._weff_cache.get(max_net_size)
        if cached is None:
            if max_net_size is None:
                cached = self.net_weights
            else:
                cached = np.where(self.active_mask(max_net_size),
                                  self.net_weights, 0)
            self._weff_cache[max_net_size] = cached
        return cached

    def pin_weights(self, max_net_size: Optional[int]) -> np.ndarray:
        """Per-pin effective weight of the pin's net (int64)."""
        cached = self._pinw_cache.get(max_net_size)
        if cached is None:
            cached = self.effective_weights(max_net_size)[self.net_ids]
            self._pinw_cache[max_net_size] = cached
        return cached

    # ------------------------------------------------------------------
    # Plain-list exports for the sequential polish walk (npengine):
    # converted once per netlist, then every per-move access is a list
    # index instead of a boxed ndarray scalar read (~5x faster).
    # ------------------------------------------------------------------

    def eff_weights_list(self, max_net_size: Optional[int]) -> list:
        """:meth:`effective_weights` as a cached plain list."""
        cached = self._weffl_cache.get(max_net_size)
        if cached is None:
            cached = self.effective_weights(max_net_size).tolist()
            self._weffl_cache[max_net_size] = cached
        return cached

    @property
    def xnets_list(self) -> list:
        """:attr:`xnets` as a cached plain list."""
        cached = self._xnets_l
        if cached is None:
            cached = self.xnets.tolist()
            self._xnets_l = cached
        return cached

    @property
    def nets_flat_list(self) -> list:
        """:attr:`nets_flat` as a cached plain list."""
        cached = self._nets_flat_l
        if cached is None:
            cached = self.nets_flat.tolist()
            self._nets_flat_l = cached
        return cached

    # ------------------------------------------------------------------
    # Vectorized kernels (k == 2).  Pure integer counting: bit-identical
    # to the scalar kernels by commutativity of integer addition.
    # ------------------------------------------------------------------

    def counts2(self, part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Pins-on-side tallies ``(c0, c1)`` over *all* nets (int64).

        ``part`` is the per-module side vector (0/1).  Callers that
        honour an active set mask at use time (via
        :meth:`effective_weights`), not here — the full tallies are
        what :class:`~repro.partition.PartitionState` zero-fills for
        inactive nets itself.
        """
        on_side = part[self.pins_flat] != 0
        c1 = np.bincount(self.net_ids[on_side], minlength=self.num_nets)
        c1 = c1.astype(np.int64, copy=False)
        return self.net_sizes - c1, c1

    def initial_gains2(self, part: np.ndarray, c0: np.ndarray,
                       c1: np.ndarray, pin_weights: np.ndarray,
                       ) -> np.ndarray:
        """Per-module FM gain vector for the current assignment (int64).

        Net-centric formulation over pins: a pin on side ``s``
        contributes ``+w`` when its net has exactly one pin on ``s``
        (moving it uncuts the net) and ``-w`` when the net has no pin
        on the other side (moving it cuts the net).  Elementwise over
        the pin axis, then an integer ``bincount`` reduction per
        module — same integer sums as the scalar kernels.

        ``pin_weights`` is the per-pin effective weight vector (usually
        :meth:`pin_weights`; a caller with a non-threshold active set
        supplies its own zero-masked vector).
        """
        pf = self.pins_flat
        e = self.net_ids
        side = part[pf] != 0
        csrc = np.where(side, c1[e], c0[e])
        cdst = np.where(side, c0[e], c1[e])
        contrib = pin_weights * (
            (csrc == 1).astype(np.int64) - (cdst == 0).astype(np.int64))
        gains = np.bincount(pf, weights=contrib, minlength=self.num_modules)
        return gains.astype(np.int64)

    def cut2(self, part: np.ndarray) -> int:
        """Total weight of nets spanning both sides (exact int)."""
        c0, c1 = self.counts2(part)
        return int(self.net_weights[(c0 > 0) & (c1 > 0)].sum())

    # ------------------------------------------------------------------
    # Batch incidence gather (the npengine's apply step).
    # ------------------------------------------------------------------

    def incident_nets(self, modules: np.ndarray,
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated incident-net ids of ``modules``.

        Returns ``(nets, lengths)`` where ``nets`` is the concatenation
        of ``nets_flat[xnets[v]:xnets[v+1]]`` for each ``v`` in order
        and ``lengths`` the per-module segment lengths, so callers can
        ``np.repeat`` per-module deltas across their segments.
        """
        xnets = self.xnets
        starts = xnets[modules]
        lengths = xnets[modules + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return (np.empty(0, dtype=self.nets_flat.dtype),
                    lengths)
        offsets = np.cumsum(lengths) - lengths
        idx = (np.arange(total, dtype=np.int64)
               + np.repeat(starts - offsets, lengths))
        return self.nets_flat[idx], lengths

    def net_pins_of(self, nets: np.ndarray,
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated pins of ``nets``; same layout as
        :meth:`incident_nets`."""
        starts = self.xpins[nets]
        lengths = self.net_sizes[nets]
        total = int(lengths.sum())
        if total == 0:
            return (np.empty(0, dtype=self.pins_flat.dtype),
                    lengths)
        offsets = np.cumsum(lengths) - lengths
        idx = (np.arange(total, dtype=np.int64)
               + np.repeat(starts - offsets, lengths))
        return self.pins_flat[idx], lengths

    def gains_for(self, modules: np.ndarray, part: np.ndarray,
                  c0: np.ndarray, c1: np.ndarray,
                  w_eff: np.ndarray) -> np.ndarray:
        """FM gains of a subset of ``modules`` (int64).

        Same arithmetic as :meth:`initial_gains2`, but summed per
        gathered module segment (``reduceat`` on integers — exact), so
        refreshing the few modules a batched commit touched costs
        O(their pins) instead of O(all pins).
        """
        if modules.size == 0:
            return np.empty(0, dtype=np.int64)
        nets, lens = self.incident_nets(modules)
        side = np.repeat(part[modules] != 0, lens)
        csrc = np.where(side, c1[nets], c0[nets])
        cdst = np.where(side, c0[nets], c1[nets])
        contrib = w_eff[nets] * (
            (csrc == 1).astype(np.int64) - (cdst == 0).astype(np.int64))
        offs = np.cumsum(lens) - lens
        out = np.add.reduceat(contrib, offs) if contrib.size else offs
        return np.where(lens > 0, out, 0)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"NumpyIncidence(modules={self.num_modules} "
                f"nets={self.num_nets} pins={self.num_pins})")
