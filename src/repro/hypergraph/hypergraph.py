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
first access, and cached.  It is also the one object the hot kernels
(Match, Induce, FM/CLIP state, gains and move loop) read: the kernel
layout ``net_pins`` / ``module_nets`` / ``weights_list`` /
``areas_list`` / ``sizes_list``, the per-threshold caches the
refinement engines share, and the lazy NumPy view ``np``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import HypergraphError

__all__ = ["Hypergraph"]


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
        Per-net integer weights.  Defaults to 1 for every net.
    name:
        Optional circuit name used in reports.
    """

    __slots__ = ("name", "areas_list", "weights_list", "_net_pins_s",
                 "_module_nets_s", "_sizes_s", "_flat", "_num_pins",
                 "_total_area", "_max_area", "_active_cache",
                 "_incidence_cache", "_maxdeg_cache", "_np_view")

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
                if w <= 0:
                    raise HypergraphError(
                        f"net {e} has non-positive weight {w}")

        self._assemble(net_pins, None, area_list, weight_list, name)

    def _assemble(self, net_pins: Optional[List[Tuple[int, ...]]], flat,
                  areas: List[float], net_weights: List[int],
                  name: str) -> None:
        """The one constructor body, shared by every construction path.

        Exactly one of ``net_pins`` (per-net pin tuples) and ``flat``
        (an ``(xpins, pins_flat)`` ndarray pair) is given.  Everything
        derived from the incidence — the per-module net tuples, the
        pin counts, the NumPy view and the per-threshold caches — is
        built on first access, so a flat build never materialises its
        tuples unless a scalar kernel asks.
        """
        self.name = name
        self._net_pins_s = net_pins
        self._module_nets_s = None
        self._sizes_s = None
        self._flat = flat
        self.areas_list = areas
        self.weights_list = net_weights
        self._num_pins = (len(flat[1]) if net_pins is None
                          else sum(map(len, net_pins)))
        self._total_area = sum(areas)
        self._max_area = max(areas) if areas else 0.0
        self._active_cache: Dict[Optional[int], Tuple[int, ...]] = {}
        self._incidence_cache: Dict[Optional[int], list] = {}
        self._maxdeg_cache: Dict[Optional[int], int] = {}
        self._np_view = None

    @classmethod
    def _trusted(cls, net_pins: List[Tuple[int, ...]],
                 areas: List[float], net_weights: List[int],
                 name: str = "") -> "Hypergraph":
        """Construct from pre-validated internals, skipping checks.

        Internal fast path for :func:`repro.clustering.induce`, whose
        output satisfies every constructor invariant by construction
        (deduplicated sorted pin tuples, >= 2 pins per net, positive
        areas and weights).  Revalidating each coarse netlist of a
        multilevel hierarchy would otherwise show up in profiles.
        """
        self = cls.__new__(cls)
        self._assemble(net_pins, None, areas, net_weights, name)
        return self

    @classmethod
    def _from_flat(cls, xpins, pins_flat,
                   areas: List[float], net_weights: List[int],
                   name: str = "") -> "Hypergraph":
        """Construct from pre-validated flat pin arrays (ndarrays).

        The vectorized path of :func:`repro.clustering.induce` produces
        coarse netlists directly in flat form (net ``e``'s pins are
        ``pins_flat[xpins[e]:xpins[e+1]]``, sorted and distinct), which
        the NumPy view reads as they are; an ``mlb`` run never builds
        the tuple layout on the large levels.  Same invariants as
        :meth:`_trusted`.
        """
        self = cls.__new__(cls)
        self._assemble(None, (xpins, pins_flat), areas, net_weights, name)
        return self

    # ------------------------------------------------------------------
    # Kernel layout.  The hot kernels bind these lists into locals:
    # list indexing returns existing objects, where an ``array`` read
    # re-boxes every integer (~1.6x slower, DESIGN.md §8).
    # ------------------------------------------------------------------

    @property
    def net_pins(self) -> List[Tuple[int, ...]]:
        """Per-net pin tuples; a flat build materialises them on demand."""
        pins = self._net_pins_s
        if pins is None:
            xpins, pins_flat = self._flat
            xl = xpins.tolist()
            pl = pins_flat.tolist()
            pins = [tuple(pl[a:b]) for a, b in zip(xl, xl[1:])]
            self._net_pins_s = pins
        return pins

    @property
    def module_nets(self) -> List[Tuple[int, ...]]:
        """Per-module incident-net tuples, ascending by net."""
        nets = self._module_nets_s
        if nets is None:
            module_nets: List[List[int]] = [[] for _ in self.areas_list]
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
            if self._flat is not None:
                xpins = self._flat[0]
                sizes = (xpins[1:] - xpins[:-1]).tolist()
            else:
                sizes = [len(p) for p in self._net_pins_s]
            self._sizes_s = sizes
        return sizes

    @property
    def np(self):
        """NumPy view of this netlist (lazy, cached; see ``npview``)."""
        view = self._np_view
        if view is None:
            from .npview import NumpyIncidence
            view = NumpyIncidence(self)
            self._np_view = view
        return view

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
            if max_net_size is None:
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
        return len(self.areas_list)

    @property
    def num_nets(self) -> int:
        """Number of nets ``|E|``."""
        return len(self.weights_list)

    @property
    def num_pins(self) -> int:
        """Total pin count (sum of net sizes)."""
        return self._num_pins

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
        """Pickle only what defines the netlist: a flat build its pin
        arrays, a tuple build its pin tuples, plus areas, weights and
        name.  Every derived list and cache is rebuilt on demand, so a
        netlist pickles to the same bytes before and after use."""
        pins = self._net_pins_s if self._flat is None else None
        return (self.name, pins, self._flat, self.areas_list,
                self.weights_list)

    def __setstate__(self, state) -> None:
        name, pins, flat, areas, weights = state
        self._assemble(pins, flat, areas, weights, name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.net_pins == other.net_pins
                and self.areas_list == other.areas_list
                and self.weights_list == other.weights_list)

    def __hash__(self) -> int:
        return hash((tuple(self.net_pins), tuple(self.areas_list),
                     tuple(self.weights_list)))
