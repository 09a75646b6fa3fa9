"""Netlist hypergraph representation.

A netlist hypergraph ``H(V, E)`` has ``n`` modules and a set of nets; a
net is a subset of modules with size greater than one (paper, Section I).
Modules are integers ``0..n-1``.  Each module has an area (default 1, the
paper's unit-area experiments) and each net has an integer weight
(default 1; weights > 1 arise when :func:`repro.clustering.induce`
merges duplicate nets of a coarsened netlist).

The representation is a static bidirectional incidence structure:

* ``pins(e)``   — tuple of modules on net ``e``
* ``nets(v)``   — tuple of nets incident to module ``v``

The hypergraph is immutable, which lets partitioning state share it
safely and lets everything derived from the incidence be built once, on
first access, and cached.

One layout defines it, and pickling sends it: ``flat == (xpins, pins,
weights, areas)`` (``array`` 'i', 'i', 'q', 'd'; net ``e``'s pins are
``pins[xpins[e]:xpins[e + 1]]``), which every compiled kernel
(:mod:`repro.fm.native`) reads and the compiled reader and Induce
write.  The lists ``net_pins``, ``areas_list`` and ``weights_list``
are views of it, each derived on its first read like ``module_nets``:
the Python kernels bind them into locals, because list indexing returns
existing objects where an ``array`` read re-boxes (DESIGN.md §8).  The
constructor and the Python Induce seed them with the lists they built.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, pairwise
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import HypergraphError

__all__ = ["Hypergraph"]

#: Net weights are held as 64-bit integers (``array('q')``).
WEIGHT_LIMIT = 1 << 63


def flat_layout(net_pins: List[Tuple[int, ...]], weights: List[int],
                areas: List[float]) -> tuple:
    """The flat layout of per-net pin tuples, weights and areas.
    Raises :class:`OverflowError` for a weight outside int64."""
    # array() fills from a list faster than from an iterator.
    return (array("i", list(accumulate(map(len, net_pins), initial=0))),
            array("i", list(chain.from_iterable(net_pins))),
            array("q", weights), array("d", areas))


class Hypergraph:
    """An immutable netlist hypergraph.

    Parameters
    ----------
    nets:
        Iterable of nets; each net is an iterable of module indices.
        Every net must contain at least two *distinct* modules.  Duplicate
        pins within a net are collapsed.
    num_modules:
        Number of modules ``n``.  If omitted, inferred as
        ``max(pin) + 1`` over all nets (isolated trailing modules would be
        lost, so pass it explicitly when modules may be isolated).
    areas:
        Per-module areas.  Defaults to unit area for every module.
    net_weights:
        Per-net integer weights in ``[1, 2**63)``.  Defaults to 1 for
        every net.
    name:
        Optional circuit name used in reports.
    """

    # No ``__getattr__`` here: a class-wide hook would slow every
    # attribute read of a netlist the Python engines walk.  The list
    # views are properties over private slots.
    __slots__ = ("name", "flat", "_largest", "_net_pins_s", "_areas_s",
                 "_weights_s", "_module_nets_s", "_sizes_s", "_total_area",
                 "_max_area", "_active_cache", "_incidence_cache",
                 "_csr_cache", "_maxdeg_cache")

    def __init__(self,
                 nets: Iterable[Iterable[int]],
                 num_modules: Optional[int] = None,
                 areas: Optional[Sequence[float]] = None,
                 net_weights: Optional[Sequence[int]] = None,
                 name: str = ""):
        net_pins: List[Tuple[int, ...]] = []
        max_seen = -1
        for raw in nets:
            # Collapse duplicate pins while preserving first-seen order so
            # construction is deterministic.
            seen = dict.fromkeys(int(v) for v in raw)
            pins = tuple(seen)
            if len(pins) < 2:
                raise HypergraphError(
                    f"net {len(net_pins)} has {len(pins)} distinct pins; "
                    "a net must span at least two modules")
            for v in pins:
                if v < 0:
                    raise HypergraphError(f"negative module index {v}")
                if v > max_seen:
                    max_seen = v
            net_pins.append(pins)

        if num_modules is None:
            num_modules = max_seen + 1
        elif max_seen >= num_modules:
            raise HypergraphError(
                f"net references module {max_seen} but num_modules is "
                f"{num_modules}")

        if areas is None:
            area_list = [1.0] * num_modules
        else:
            area_list = [float(a) for a in areas]
            if len(area_list) != num_modules:
                raise HypergraphError(
                    f"areas has length {len(area_list)}, expected "
                    f"{num_modules}")
            for i, a in enumerate(area_list):
                if a <= 0:
                    raise HypergraphError(
                        f"module {i} has non-positive area {a}")

        if net_weights is None:
            weight_list = [1] * len(net_pins)
        else:
            weight_list = [int(w) for w in net_weights]
            if len(weight_list) != len(net_pins):
                raise HypergraphError(
                    f"net_weights has length {len(weight_list)}, expected "
                    f"{len(net_pins)}")
            for e, w in enumerate(weight_list):
                if not 0 < w < WEIGHT_LIMIT:
                    raise HypergraphError(
                        f"net {e} has non-positive weight {w}" if w <= 0
                        else f"net {e} has weight {w}, not below 2**63")

        # The lists validation built seed their views.
        self._init(flat_layout(net_pins, weight_list, area_list), name,
                   views=(net_pins, area_list, weight_list))

    @classmethod
    def _from_flat(cls, flat: tuple, name: str = "",
                   largest: Optional[int] = None,
                   views: Optional[tuple] = None) -> "Hypergraph":
        """Construct from a flat layout that satisfies every constructor
        invariant (the reader's and both Induce paths'), unchecked.
        ``largest`` (the largest net's pin count) and ``views``
        (``(net_pins, areas_list, weights_list)``) when known."""
        self = cls.__new__(cls)
        self._init(flat, name, largest, views)
        return self

    def _init(self, flat: tuple, name: str, largest: Optional[int] = None,
              views: Optional[tuple] = None) -> None:
        """The one constructor body: the layout, the name, the area
        totals, the views given and empty caches of the rest."""
        self.flat = flat
        self.name = name
        self._largest = largest
        self._net_pins_s, self._areas_s, self._weights_s = \
            views or (None, None, None)
        self._module_nets_s = self._sizes_s = None
        areas = flat[3]
        self._total_area = sum(areas)
        self._max_area = max(areas) if areas else 0.0
        self._active_cache: Dict[Optional[int], Tuple[int, ...]] = {}
        self._incidence_cache: Dict[Optional[int], list] = {}
        self._csr_cache: Dict[Optional[int], tuple] = {}
        self._maxdeg_cache: Dict[Optional[int], int] = {}

    def _largest_net(self) -> int:
        """The largest net's pin count."""
        largest = self._largest
        if largest is None:
            xpins = self.flat[0]
            largest = self._largest = max(map(sub, xpins[1:], xpins),
                                          default=0)
        return largest

    # ------------------------------------------------------------------
    # Views derived from the flat layout, each on its first read.
    # ------------------------------------------------------------------

    @property
    def net_pins(self) -> List[Tuple[int, ...]]:
        """Per-net pin tuples."""
        net_pins = self._net_pins_s
        if net_pins is None:
            xpins, pins = self.flat[0], self.flat[1].tolist()
            net_pins = self._net_pins_s = [tuple(pins[a:b])
                                           for a, b in pairwise(xpins)]
        return net_pins

    @property
    def areas_list(self) -> List[float]:
        """Per-module areas."""
        areas = self._areas_s
        if areas is None:
            areas = self._areas_s = self.flat[3].tolist()
        return areas

    @property
    def weights_list(self) -> List[int]:
        """Per-net weights."""
        weights = self._weights_s
        if weights is None:
            weights = self._weights_s = self.flat[2].tolist()
        return weights

    @property
    def module_nets(self) -> List[Tuple[int, ...]]:
        """Per-module incident-net tuples, ascending by net."""
        nets = self._module_nets_s
        if nets is None:
            module_nets: List[List[int]] = [
                [] for _ in range(self.num_modules)]
            for e, pins in enumerate(self.net_pins):
                for v in pins:
                    module_nets[v].append(e)
            nets = [tuple(ns) for ns in module_nets]
            self._module_nets_s = nets
        return nets

    @property
    def sizes_list(self) -> List[int]:
        """Per-net pin counts."""
        sizes = self._sizes_s
        if sizes is None:
            sizes = self._sizes_s = [b - a for a, b
                                     in pairwise(self.flat[0])]
        return sizes

    # ------------------------------------------------------------------
    # Per-threshold caches shared by the refinement engines.  Each is a
    # pure function of the immutable netlist, so repeated FM calls on
    # one level (CLIP restarts, portfolio starts over a reused
    # hierarchy) pay each O(pins) scan once.
    # ------------------------------------------------------------------

    def active_nets(self, max_net_size: Optional[int]) -> Tuple[int, ...]:
        """Nets no larger than ``max_net_size`` (all nets for ``None``).

        This is the FM engines' active set (nets above the threshold
        are excluded from refinement, Section III-B), as one shared
        tuple per threshold.
        """
        cached = self._active_cache.get(max_net_size)
        if cached is None:
            if max_net_size is None or self._largest_net() <= max_net_size:
                cached = tuple(range(self.num_nets))
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
        :attr:`module_nets` itself, so the hot loops iterate the
        filtered incidence directly and never test an ``active[e]``
        flag per visit.
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

    def active_csr(self, max_net_size: Optional[int]) -> tuple:
        """The flat layout with :meth:`active_incidence` beside it.

        ``(xpins, pins, xinc, inc, weights, areas)``: module ``v``'s
        active nets are ``inc[xinc[v]:xinc[v + 1]]`` (``array('i')``);
        the other four are :attr:`flat`.  This is what the compiled FM
        pass reads.  The incidence is built once per threshold — by the
        compiled ``incidence`` kernel when it loads — and a threshold
        that excludes no net shares the unfiltered one.
        """
        cached = self._csr_cache.get(max_net_size)
        if cached is None:
            if (max_net_size is not None
                    and self._largest_net() <= max_net_size):
                cached = self.active_csr(None)
            else:
                from ..fm.native import load
                kernel = load()
                xpins, pins, weights, areas = self.flat
                if kernel is not None:
                    xinc = array("i", [0]) * (self.num_modules + 1)
                    inc = array("i", [0]) * len(pins)
                    kernel.incidence(
                        xpins, pins, weights, areas,
                        -1 if max_net_size is None else max_net_size,
                        xinc, inc)
                    del inc[xinc[-1]:]
                else:
                    incidence = self.active_incidence(max_net_size)
                    xinc = array("i", accumulate(map(len, incidence),
                                                 initial=0))
                    inc = array("i", chain.from_iterable(incidence))
                cached = (xpins, pins, xinc, inc, weights, areas)
            self._csr_cache[max_net_size] = cached
        return cached

    def max_weighted_degree(self, max_net_size: Optional[int] = None) -> int:
        """Largest per-module sum of active-net weights (the gain bound)."""
        cached = self._maxdeg_cache.get(max_net_size)
        if cached is None:
            weights = self.weights_list
            best = 0
            for nets in self.active_incidence(max_net_size):
                d = 0
                for e in nets:
                    d += weights[e]
                if d > best:
                    best = d
            cached = best
            self._maxdeg_cache[max_net_size] = cached
        return cached

    # ------------------------------------------------------------------
    # Size characteristics (Table I columns).
    # ------------------------------------------------------------------

    @property
    def num_modules(self) -> int:
        """Number of modules ``|V|``."""
        return len(self.flat[3])

    @property
    def num_nets(self) -> int:
        """Number of nets ``|E|``."""
        return len(self.flat[2])

    @property
    def num_pins(self) -> int:
        """Total pin count (sum of net sizes)."""
        return len(self.flat[1])

    @property
    def total_area(self) -> float:
        """``A(V)``: sum of all module areas."""
        return self._total_area

    @property
    def max_area(self) -> float:
        """``A(v*)``: the largest single module area."""
        return self._max_area

    @property
    def total_net_weight(self) -> int:
        """Sum of net weights (equals ``num_nets`` for unweighted input)."""
        return sum(self.weights_list)

    # ------------------------------------------------------------------
    # Incidence accessors.
    # ------------------------------------------------------------------

    def pins(self, net: int) -> Tuple[int, ...]:
        """Modules on ``net``."""
        return self.net_pins[net]

    def nets(self, module: int) -> Tuple[int, ...]:
        """Nets incident to ``module``."""
        return self.module_nets[module]

    def net_size(self, net: int) -> int:
        """Number of modules on ``net``."""
        return len(self.net_pins[net])

    def net_weight(self, net: int) -> int:
        """Weight of ``net``."""
        return self.weights_list[net]

    def degree(self, module: int) -> int:
        """Number of nets incident to ``module``."""
        return len(self.module_nets[module])

    def area(self, module: int) -> float:
        """Area ``A(module)``."""
        return self.areas_list[module]

    def areas(self) -> List[float]:
        """Copy of the per-module area vector."""
        return list(self.areas_list)

    def net_weights(self) -> List[int]:
        """Copy of the per-net weight vector."""
        return list(self.weights_list)

    def area_of(self, modules: Iterable[int]) -> float:
        """``A(S)`` for a subset ``S`` of modules."""
        areas = self.areas_list
        return sum(areas[v] for v in modules)

    def modules(self) -> range:
        """Iterable over all module indices."""
        return range(self.num_modules)

    def all_nets(self) -> range:
        """Iterable over all net indices."""
        return range(self.num_nets)

    def neighbors(self, module: int) -> List[int]:
        """Distinct modules sharing at least one net with ``module``."""
        seen = {module}
        out: List[int] = []
        for e in self.module_nets[module]:
            for w in self.net_pins[e]:
                if w not in seen:
                    seen.add(w)
                    out.append(w)
        return out

    def is_unit_area(self) -> bool:
        """True when every module has area exactly 1 (paper's default)."""
        return all(a == 1.0 for a in self.areas_list)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"Hypergraph({label} modules={self.num_modules} "
                f"nets={self.num_nets} pins={self.num_pins})")

    def __getstate__(self):
        """Pickle only what defines the netlist: its name and its flat
        layout.  Every view and cache is rebuilt on demand, so a
        netlist pickles to the same bytes before and after use."""
        return (self.name, *self.flat)

    def __setstate__(self, state) -> None:
        self._init(tuple(state[1:]), state[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.flat == other.flat

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self.flat)))

