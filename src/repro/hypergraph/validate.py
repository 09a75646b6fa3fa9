"""Structural validation and consistency checks for hypergraphs.

:class:`~repro.hypergraph.Hypergraph` already rejects malformed input at
construction; the checks here verify the *internal* cross-references
(the flat layout, every view derived from it, pins vs nets directions,
cached totals) and are used by the test suite.
"""

from __future__ import annotations

from typing import List

from ..errors import HypergraphError
from .hypergraph import Hypergraph

__all__ = ["check_consistency", "assert_same_structure"]


def check_consistency(hg: Hypergraph) -> None:
    """Raise :class:`HypergraphError` if ``hg`` violates any invariant:
    the flat layout is a valid netlist, and every view and cached total
    derived from it agrees with it."""
    xpins, flat_pins, flat_weights, flat_areas = hg.flat
    net_pins = hg.net_pins
    if len(net_pins) != hg.num_nets:
        raise HypergraphError(
            f"{len(net_pins)} nets but {hg.num_nets} net weights")
    pin_count = sum(map(len, net_pins))
    if pin_count != hg.num_pins:
        raise HypergraphError(
            f"num_pins {hg.num_pins} != {pin_count} pins in net_pins")
    sizes = hg.sizes_list
    if len(sizes) != hg.num_nets:
        raise HypergraphError(
            f"{len(sizes)} net sizes but {hg.num_nets} nets")
    for e, pins in enumerate(net_pins):
        flat_net = flat_pins[xpins[e]:xpins[e + 1]].tolist()
        if sizes[e] != len(flat_net):
            raise HypergraphError(
                f"cached size {sizes[e]} of net {e} != actual "
                f"{len(flat_net)}")
        if list(pins) != flat_net:
            raise HypergraphError(f"net {e} pins differ from the flat "
                                  "layout")
        if len(set(pins)) != len(pins):
            raise HypergraphError(f"net {e} has duplicate pins")
        if len(pins) < 2:
            raise HypergraphError(f"net {e} has fewer than two pins")
        for v in pins:
            if not 0 <= v < hg.num_modules:
                raise HypergraphError(f"net {e} pin {v} out of range")
    if hg.weights_list != flat_weights.tolist():
        raise HypergraphError(f"{len(hg.weights_list)} net weights in "
                              "weights_list differ from the flat layout")
    if hg.areas_list != flat_areas.tolist():
        raise HypergraphError(f"{len(hg.areas_list)} module areas in "
                              "areas_list differ from the flat layout")

    # Every pin is in range, so the module side can be built and
    # cross-checked.
    if len(hg.module_nets) != hg.num_modules:
        raise HypergraphError(
            f"{len(hg.module_nets)} incidence rows but {hg.num_modules} "
            "module areas")
    for e in hg.all_nets():
        for v in hg.pins(e):
            if e not in hg.nets(v):
                raise HypergraphError(
                    f"net {e} lists module {v} but module {v} does not "
                    f"list net {e}")
    for v in hg.modules():
        for e in hg.nets(v):
            if v not in hg.pins(e):
                raise HypergraphError(
                    f"module {v} lists net {e} but net {e} does not "
                    f"contain module {v}")

    actual_area = sum(flat_areas)
    if abs(actual_area - hg.total_area) > 1e-9 * max(1.0, actual_area):
        raise HypergraphError(
            f"cached total_area {hg.total_area} != actual {actual_area}")
    # A(v*) enters every balance bound (partition/balance.py).
    max_area = max(flat_areas, default=0.0)
    if hg.max_area != max_area:
        raise HypergraphError(
            f"cached max_area {hg.max_area} != actual {max_area}")


def assert_same_structure(a: Hypergraph, b: Hypergraph) -> None:
    """Raise unless ``a`` and ``b`` have identical nets/areas/weights.

    Net order matters (these are netlists, not abstract set systems);
    used by I/O round-trip tests.
    """
    if a.num_modules != b.num_modules:
        raise HypergraphError(
            f"module counts differ: {a.num_modules} vs {b.num_modules}")
    if a.num_nets != b.num_nets:
        raise HypergraphError(
            f"net counts differ: {a.num_nets} vs {b.num_nets}")
    for e in a.all_nets():
        if tuple(a.pins(e)) != tuple(b.pins(e)):
            raise HypergraphError(f"net {e} pins differ")
        if a.net_weight(e) != b.net_weight(e):
            raise HypergraphError(f"net {e} weights differ")
    mismatched: List[int] = [v for v in a.modules()
                             if abs(a.area(v) - b.area(v)) > 1e-12]
    if mismatched:
        raise HypergraphError(f"areas differ at modules {mismatched[:5]}")
