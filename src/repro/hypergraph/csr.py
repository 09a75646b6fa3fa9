"""Flat-array (CSR) incidence layer for the hot kernels.

Engineering-focused multilevel partitioners (KaHIP, KaHyPar) get their
speed from compressed sparse row adjacency: two index arrays and two
flat pin arrays replace nested containers, so whole-netlist sweeps
touch contiguous storage and random accesses are plain index
operations.  :class:`CSRIncidence` materialises that layout once per
:class:`~repro.hypergraph.Hypergraph` (built lazily on first access to
``Hypergraph.csr``, then cached for the lifetime of the immutable
netlist):

* ``xpins`` / ``pins_flat`` — net ``e``'s pins are
  ``pins_flat[xpins[e]:xpins[e+1]]``, in the hypergraph's pin order.
* ``xnets`` / ``nets_flat`` — module ``v``'s incident nets are
  ``nets_flat[xnets[v]:xnets[v+1]]``, in the hypergraph's net order.
* ``net_weights`` / ``net_sizes`` (``array('i')``) and ``areas``
  (``array('d')``) — per-net and per-module scalars.

The compact arrays are the canonical export layout (and the natural
ABI for future native kernels); they are materialised lazily on first
access, since the pure-Python kernels never read them and a multilevel
run builds one view per hierarchy level.  Because CPython re-boxes
every read
from an ``array`` while list indexing returns existing objects
(measured ~1.6x faster; see DESIGN.md), the view additionally exposes
*kernel twins* — ``weights_list``, ``sizes_list``, ``areas_list`` and
the shared per-object tuple views ``net_pins`` / ``module_nets`` —
which the pure-Python kernels bind locally.  Both families describe
the same incidence; ``tests/test_kernels.py`` asserts they reconstruct
``pins(e)``/``nets(v)`` exactly.

The view also hosts the per-netlist caches the refinement engines
share: the active-net list for a given net-size threshold and the
maximum weighted degree over that active set (the FM gain bound).
Both are pure functions of the immutable hypergraph, so caching them
per threshold is safe and makes repeated FM calls on one level (CLIP
restarts, multi-start portfolios reusing a hierarchy) stop
recomputing O(pins) scans.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Tuple

__all__ = ["CSRIncidence"]


class CSRIncidence:
    """Read-only flat incidence view over one immutable hypergraph."""

    __slots__ = ("_hg", "num_modules", "num_nets", "num_pins",
                 "_xpins", "_pins_flat", "_xnets", "_nets_flat",
                 "_net_weights_arr", "_net_sizes_arr", "_areas_arr",
                 "_net_pins_t", "_module_nets_t", "_sizes_l",
                 "weights_list", "areas_list",
                 "_active_cache", "_maxdeg_cache", "_all_nets",
                 "_incidence_cache", "_np_view")

    def __init__(self, hg) -> None:
        self._hg = hg
        self.num_modules = hg.num_modules
        self.num_nets = hg.num_nets
        self.num_pins = hg.num_pins

        # Kernel twins share the hypergraph's own (immutable) lists and
        # tuples — no copy, and list indexing returns existing objects.
        # Flat-built netlists (the vectorized coarsening path) defer
        # the tuple twins: they materialise through the hypergraph's
        # lazy properties only if a scalar kernel actually asks.
        self.weights_list = hg._net_weights
        self.areas_list = hg._areas
        if hg._net_pins_s is not None:
            self._net_pins_t = hg._net_pins_s
            self._module_nets_t = hg._module_nets
            self._sizes_l = [len(p) for p in hg._net_pins_s]
        else:
            self._net_pins_t = None
            self._module_nets_t = None
            self._sizes_l = None

        # The compact array exports are built lazily: the pure-Python
        # kernels never touch them, so eager construction would charge
        # every hierarchy level for a layout only exporters use.
        self._xpins: Optional[array] = None
        self._pins_flat: Optional[array] = None
        self._xnets: Optional[array] = None
        self._nets_flat: Optional[array] = None
        self._net_weights_arr: Optional[array] = None
        self._net_sizes_arr: Optional[array] = None
        self._areas_arr: Optional[array] = None

        self._active_cache: Dict[Optional[int], Tuple[int, ...]] = {}
        self._maxdeg_cache: Dict[Optional[int], int] = {}
        self._all_nets: Optional[Tuple[int, ...]] = None
        self._incidence_cache: Dict[Optional[int], list] = {}
        self._np_view = None

    # ------------------------------------------------------------------
    # Kernel twins (lazy for flat-built netlists).
    # ------------------------------------------------------------------

    @property
    def net_pins(self) -> list:
        """Per-net pin tuples (the scalar kernels' pin layout)."""
        pins = self._net_pins_t
        if pins is None:
            pins = self._hg._net_pins
            self._net_pins_t = pins
        return pins

    @property
    def module_nets(self) -> list:
        """Per-module incident-net tuples."""
        nets = self._module_nets_t
        if nets is None:
            nets = self._hg._module_nets
            self._module_nets_t = nets
        return nets

    @property
    def sizes_list(self) -> list:
        """Per-net pin counts as a plain list."""
        sizes = self._sizes_l
        if sizes is None:
            flat = self._hg._flat
            if flat is not None:
                xpins = flat[0]
                sizes = (xpins[1:] - xpins[:-1]).tolist()
            else:
                sizes = [len(p) for p in self.net_pins]
            self._sizes_l = sizes
        return sizes

    # ------------------------------------------------------------------
    # Compact array exports (lazy).
    # ------------------------------------------------------------------

    def _build_pin_arrays(self) -> None:
        xpins = array("i", [0])
        pins_flat = array("i")
        for pins in self.net_pins:
            pins_flat.extend(pins)
            xpins.append(len(pins_flat))
        self._xpins = xpins
        self._pins_flat = pins_flat

    def _build_net_arrays(self) -> None:
        xnets = array("i", [0])
        nets_flat = array("i")
        for nets in self.module_nets:
            nets_flat.extend(nets)
            xnets.append(len(nets_flat))
        self._xnets = xnets
        self._nets_flat = nets_flat

    @property
    def xpins(self) -> array:
        """Net index array: net ``e`` spans ``xpins[e]:xpins[e+1]``."""
        if self._xpins is None:
            self._build_pin_arrays()
        return self._xpins

    @property
    def pins_flat(self) -> array:
        """Flat pin array, indexed through :attr:`xpins`."""
        if self._pins_flat is None:
            self._build_pin_arrays()
        return self._pins_flat

    @property
    def xnets(self) -> array:
        """Module index array: ``v`` spans ``xnets[v]:xnets[v+1]``."""
        if self._xnets is None:
            self._build_net_arrays()
        return self._xnets

    @property
    def nets_flat(self) -> array:
        """Flat incident-net array, indexed through :attr:`xnets`."""
        if self._nets_flat is None:
            self._build_net_arrays()
        return self._nets_flat

    @property
    def net_weights(self) -> array:
        """Per-net weights as a compact ``array('i')``."""
        if self._net_weights_arr is None:
            self._net_weights_arr = array("i", self.weights_list)
        return self._net_weights_arr

    @property
    def net_sizes(self) -> array:
        """Per-net pin counts as a compact ``array('i')``."""
        if self._net_sizes_arr is None:
            self._net_sizes_arr = array("i", self.sizes_list)
        return self._net_sizes_arr

    @property
    def areas(self) -> array:
        """Per-module areas as a compact ``array('d')``."""
        if self._areas_arr is None:
            self._areas_arr = array("d", self.areas_list)
        return self._areas_arr

    @property
    def np(self):
        """NumPy export of this view (lazy, cached; see ``npview``)."""
        view = self._np_view
        if view is None:
            from .npview import NumpyIncidence
            flat = self._hg._flat
            if flat is not None:
                view = NumpyIncidence._from_flat(self, flat[0], flat[1])
            else:
                view = NumpyIncidence(self)
            self._np_view = view
        return view

    # ------------------------------------------------------------------
    # Reconstruction helpers (the equivalence contract, used by tests).
    # ------------------------------------------------------------------

    def pins(self, net: int) -> Tuple[int, ...]:
        """``pins(net)`` rebuilt from the flat arrays."""
        return tuple(self.pins_flat[self.xpins[net]:self.xpins[net + 1]])

    def nets(self, module: int) -> Tuple[int, ...]:
        """``nets(module)`` rebuilt from the flat arrays."""
        return tuple(
            self.nets_flat[self.xnets[module]:self.xnets[module + 1]])

    # ------------------------------------------------------------------
    # Shared per-netlist caches.
    # ------------------------------------------------------------------

    def all_nets(self) -> Tuple[int, ...]:
        """Cached ``(0, 1, ..., num_nets - 1)`` tuple."""
        nets = self._all_nets
        if nets is None:
            nets = tuple(range(self.num_nets))
            self._all_nets = nets
        return nets

    def active_nets(self, max_net_size: Optional[int]) -> Tuple[int, ...]:
        """Nets no larger than ``max_net_size`` (all nets for ``None``).

        This is the FM engines' active set (nets above the threshold
        are excluded from refinement, Section III-B); the tuple is
        cached per threshold and shared by every engine call.
        """
        cached = self._active_cache.get(max_net_size)
        if cached is None:
            if max_net_size is None:
                cached = self.all_nets()
            else:
                sizes = self.sizes_list
                cached = tuple(e for e in range(self.num_nets)
                               if sizes[e] <= max_net_size)
            self._active_cache[max_net_size] = cached
        return cached

    def active_incidence(self, max_net_size: Optional[int]) -> list:
        """Per-module incident nets restricted to the active set.

        When every net is active (the common case — the paper's 200-pin
        threshold rarely excludes anything on these netlists) this is
        ``module_nets`` itself, so the hot loops iterate the filtered
        incidence directly and never test an ``active[e]`` flag per
        visit.  Cached per threshold like :meth:`active_nets`.
        """
        cached = self._incidence_cache.get(max_net_size)
        if cached is None:
            active = self.active_nets(max_net_size)
            if len(active) == self.num_nets:
                cached = self.module_nets
            else:
                flags = [False] * self.num_nets
                for e in active:
                    flags[e] = True
                cached = [tuple(e for e in nets if flags[e])
                          for nets in self.module_nets]
            self._incidence_cache[max_net_size] = cached
        return cached

    def max_weighted_degree(self, max_net_size: Optional[int] = None) -> int:
        """Largest per-module sum of active-net weights (the gain bound).

        Cached per threshold: repeated FM calls on the same netlist
        (CLIP restarts, portfolio starts over a reused hierarchy) pay
        the O(pins) scan once.
        """
        cached = self._maxdeg_cache.get(max_net_size)
        if cached is None:
            weights = self.weights_list
            best = 0
            if max_net_size is None:
                for nets in self.module_nets:
                    d = 0
                    for e in nets:
                        d += weights[e]
                    if d > best:
                        best = d
            else:
                sizes = self.sizes_list
                for nets in self.module_nets:
                    d = 0
                    for e in nets:
                        if sizes[e] <= max_net_size:
                            d += weights[e]
                    if d > best:
                        best = d
            cached = best
            self._maxdeg_cache[max_net_size] = cached
        return cached

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRIncidence(modules={self.num_modules} "
                f"nets={self.num_nets} pins={self.num_pins})")
