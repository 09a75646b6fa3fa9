"""Structural validation and consistency checks for hypergraphs.

:class:`~repro.hypergraph.Hypergraph` already rejects malformed input at
construction; the checks here verify the *internal* cross-references
(pins vs nets directions, the kernel lists, cached totals) and are used
by the test suite.
"""

from __future__ import annotations

from typing import List

from ..errors import HypergraphError
from .hypergraph import Hypergraph

__all__ = ["check_consistency", "assert_same_structure"]


def check_consistency(hg: Hypergraph) -> None:
    """Raise :class:`HypergraphError` if ``hg`` violates any invariant."""
    if len(hg.net_pins) != hg.num_nets:
        raise HypergraphError(
            f"{len(hg.net_pins)} nets but {hg.num_nets} net weights")
    sizes = hg.sizes_list
    if len(sizes) != hg.num_nets:
        raise HypergraphError(
            f"{len(sizes)} net sizes but {hg.num_nets} nets")
    pin_count = 0
    for e in hg.all_nets():
        pins = hg.pins(e)
        if sizes[e] != len(pins):
            raise HypergraphError(
                f"cached size {sizes[e]} of net {e} != actual {len(pins)}")
        if len(set(pins)) != len(pins):
            raise HypergraphError(f"net {e} has duplicate pins")
        if len(pins) < 2:
            raise HypergraphError(f"net {e} has fewer than two pins")
        for v in pins:
            if not 0 <= v < hg.num_modules:
                raise HypergraphError(f"net {e} pin {v} out of range")
        pin_count += len(pins)

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

    if pin_count != hg.num_pins:
        raise HypergraphError(
            f"cached num_pins {hg.num_pins} != actual {pin_count}")
    actual_area = sum(hg.area(v) for v in hg.modules())
    if abs(actual_area - hg.total_area) > 1e-9 * max(1.0, actual_area):
        raise HypergraphError(
            f"cached total_area {hg.total_area} != actual {actual_area}")
    # A(v*) enters every balance bound (partition/balance.py).
    max_area = max(hg.areas_list, default=0.0)
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
