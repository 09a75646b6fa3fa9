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

Both directions are materialised once at construction; the hypergraph is
immutable afterwards, which lets partitioning state share it safely.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import HypergraphError
from .csr import CSRIncidence

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

    __slots__ = ("name", "_net_pins_s", "_module_nets_s", "_flat",
                 "_areas", "_net_weights", "_num_pins", "_total_area",
                 "_max_area", "_csr")

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

        module_nets: List[List[int]] = [[] for _ in range(num_modules)]
        for e, pins in enumerate(net_pins):
            for v in pins:
                module_nets[v].append(e)

        self.name = name
        self._net_pins_s = net_pins
        self._module_nets_s = [tuple(ns) for ns in module_nets]
        self._flat = None
        self._areas = area_list
        self._net_weights = weight_list
        self._num_pins = sum(len(p) for p in net_pins)
        self._total_area = sum(area_list)
        self._max_area = max(area_list) if area_list else 0.0
        self._csr: Optional[CSRIncidence] = None

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
        module_nets: List[List[int]] = [[] for _ in range(len(areas))]
        for e, pins in enumerate(net_pins):
            for v in pins:
                module_nets[v].append(e)
        self.name = name
        self._net_pins_s = net_pins
        self._module_nets_s = [tuple(ns) for ns in module_nets]
        self._flat = None
        self._areas = areas
        self._net_weights = net_weights
        self._num_pins = sum(len(p) for p in net_pins)
        self._total_area = sum(areas)
        self._max_area = max(areas) if areas else 0.0
        self._csr = None
        return self

    @classmethod
    def _from_flat(cls, xpins, pins_flat,
                   areas: List[float], net_weights: List[int],
                   name: str = "") -> "Hypergraph":
        """Construct from pre-validated flat pin arrays (ndarrays).

        The vectorized path of :func:`repro.clustering.induce` produces
        coarse netlists directly in CSR form (net ``e``'s pins are
        ``pins_flat[xpins[e]:xpins[e+1]]``, sorted and distinct).  The
        tuple incidence structures — which only the scalar kernels
        read — are materialised lazily on first access, so an ``mlb``
        run never pays for building them on the large levels.  Same invariants as :meth:`_trusted`.
        """
        self = cls.__new__(cls)
        self.name = name
        self._net_pins_s = None
        self._module_nets_s = None
        self._flat = (xpins, pins_flat)
        self._areas = areas
        self._net_weights = net_weights
        self._num_pins = len(pins_flat)
        self._total_area = sum(areas)
        self._max_area = max(areas) if areas else 0.0
        self._csr = None
        return self

    # ------------------------------------------------------------------
    # Lazy tuple incidence (scalar-kernel layout).
    # ------------------------------------------------------------------

    @property
    def _net_pins(self) -> List[Tuple[int, ...]]:
        """Per-net pin tuples, materialised on demand for flat builds."""
        pins = self._net_pins_s
        if pins is None:
            xpins, pins_flat = self._flat
            xl = xpins.tolist()
            pl = pins_flat.tolist()
            pins = [tuple(pl[a:b]) for a, b in zip(xl, xl[1:])]
            self._net_pins_s = pins
        return pins

    @property
    def _module_nets(self) -> List[Tuple[int, ...]]:
        """Per-module net tuples, materialised on demand for flat builds."""
        nets = self._module_nets_s
        if nets is None:
            module_nets: List[List[int]] = [[] for _ in self._areas]
            for e, pins in enumerate(self._net_pins):
                for v in pins:
                    module_nets[v].append(e)
            nets = [tuple(ns) for ns in module_nets]
            self._module_nets_s = nets
        return nets

    # ------------------------------------------------------------------
    # Size characteristics (Table I columns).
    # ------------------------------------------------------------------

    @property
    def num_modules(self) -> int:
        """Number of modules ``|V|``."""
        return len(self._areas)

    @property
    def num_nets(self) -> int:
        """Number of nets ``|E|``."""
        return len(self._net_weights)

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
        return sum(self._net_weights)

    @property
    def csr(self) -> CSRIncidence:
        """The flat-array (CSR) incidence view of this netlist.

        Built on first access and cached — the hypergraph is immutable,
        so the view stays valid for its whole lifetime.  All hot
        kernels (state bookkeeping, FM gain maintenance, matching)
        consume this layer; the tuple accessors below remain the
        stable public API.
        """
        view = self._csr
        if view is None:
            from ..obs import tracer
            tr = tracer()
            t0 = tr.now() if tr.enabled else 0
            view = CSRIncidence(self)
            self._csr = view
            if tr.enabled:
                tr.complete("csr.build", t0, {
                    "modules": view.num_modules, "nets": view.num_nets,
                    "pins": view.num_pins})
        return view

    # ------------------------------------------------------------------
    # Incidence accessors.
    # ------------------------------------------------------------------

    def pins(self, net: int) -> Tuple[int, ...]:
        """Modules on ``net``."""
        return self._net_pins[net]

    def nets(self, module: int) -> Tuple[int, ...]:
        """Nets incident to ``module``."""
        return self._module_nets[module]

    def net_size(self, net: int) -> int:
        """Number of modules on ``net``."""
        return len(self._net_pins[net])

    def net_weight(self, net: int) -> int:
        """Weight of ``net``."""
        return self._net_weights[net]

    def degree(self, module: int) -> int:
        """Number of nets incident to ``module``."""
        return len(self._module_nets[module])

    def area(self, module: int) -> float:
        """Area ``A(module)``."""
        return self._areas[module]

    def areas(self) -> List[float]:
        """Copy of the per-module area vector."""
        return list(self._areas)

    def net_weights(self) -> List[int]:
        """Copy of the per-net weight vector."""
        return list(self._net_weights)

    def area_of(self, modules: Iterable[int]) -> float:
        """``A(S)`` for a subset ``S`` of modules."""
        areas = self._areas
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
        for e in self._module_nets[module]:
            for w in self._net_pins[e]:
                if w not in seen:
                    seen.add(w)
                    out.append(w)
        return out

    def is_unit_area(self) -> bool:
        """True when every module has area exactly 1 (paper's default)."""
        return all(a == 1.0 for a in self._areas)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"Hypergraph({label} modules={self.num_modules} "
                f"nets={self.num_nets} pins={self.num_pins})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self._net_pins == other._net_pins
                and self._areas == other._areas
                and self._net_weights == other._net_weights)

    def __hash__(self) -> int:
        return hash((tuple(self._net_pins), tuple(self._areas),
                     tuple(self._net_weights)))
