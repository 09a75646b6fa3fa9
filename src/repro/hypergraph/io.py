"""Netlist file I/O.

Three formats are supported:

* **hMETIS** (``.hgr``): the de-facto exchange format for hypergraph
  partitioning benchmarks.  First line is ``<#nets> <#modules> [fmt]``
  where ``fmt`` is ``1`` (weighted nets), ``10`` (weighted modules) or
  ``11`` (both); each net line lists 1-based module indices, prefixed by
  the net weight when nets are weighted; module weight lines follow when
  modules are weighted.  Comment lines start with ``%``.
* **ACM/SIGDA netD** (``.netD`` / ``.net``): the format the paper's
  benchmark circuits were distributed in by the CAD Benchmarking
  Laboratory.  Five header lines (a literal ``0``, then pin, net,
  module, and pad-offset counts) are followed by one line per pin:
  ``<name> <s|l> [dir]`` where ``s`` starts a new net and ``l``
  continues the current one; cell names start with ``a``, pad names
  with ``p``.  A companion ``.are`` file lists ``<name> <area>`` pairs.
* **JSON**: a simple self-describing container used for round-tripping
  within this library.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ParseError, ReproError
from .builder import HypergraphBuilder
from .hypergraph import Hypergraph

__all__ = ["read_hmetis", "write_hmetis", "read_netd", "write_netd",
           "read_are", "write_are", "read_json", "write_json",
           "netlist_from_dict", "netlist_to_dict"]

PathLike = Union[str, Path]


def _tokenized_lines(text: str):
    """Yield (line_number, tokens) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        yield lineno, line.split()


def _decode(data: bytes) -> str:
    """A file's bytes as ``Path.read_text`` would have read them;
    undecodable bytes are a :class:`ParseError`."""
    try:
        return io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not {exc.encoding} text: {exc.reason} at byte "
                         f"{exc.start}") from None


def read_hmetis(path: PathLike, name: str = "") -> Hypergraph:
    """Read a hypergraph in hMETIS format.

    The file's bytes go first to the compiled reader
    (:mod:`repro.fm.native`), which builds the netlist's flat layout
    directly when the file lies in a plain subset of the format: only
    printable ASCII, tab, LF and CR; integers of plain digits; areas of
    plain decimals; counts the file holds; net weights in ``[1,
    2**63)``, areas finite and positive, at least two distinct pins a
    net.  It declines anything else, and the Python reader below parses
    the same bytes, so every error and its message comes from Python
    (DESIGN.md §8).
    """
    from ..fm.native import load
    data = Path(path).read_bytes()
    name = name or Path(path).stem
    kernel = load()
    parsed = kernel.read_hmetis(data) if kernel is not None else None
    if parsed is None:
        return _parse_hmetis(_decode(data), name)
    flat, largest = parsed
    return Hypergraph._from_flat(flat, name, largest)


def _parse_hmetis(text: str, name: str) -> Hypergraph:
    """The Python hMETIS reader: the compiled reader's reference, and
    the one that names every error."""
    lines = _tokenized_lines(text)

    try:
        header_lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty hMETIS file") from None
    if len(header) not in (2, 3):
        raise ParseError("header must be '<#nets> <#modules> [fmt]'",
                         header_lineno)
    try:
        num_nets, num_modules = int(header[0]), int(header[1])
        fmt = int(header[2]) if len(header) == 3 else 0
    except ValueError:
        raise ParseError("non-integer header field", header_lineno) from None
    if fmt not in (0, 1, 10, 11):
        raise ParseError(f"unsupported fmt code {fmt}", header_lineno)
    weighted_nets = fmt in (1, 11)
    weighted_modules = fmt in (10, 11)

    nets: List[List[int]] = []
    net_weights: List[int] = []
    for _ in range(num_nets):
        try:
            lineno, tokens = next(lines)
        except StopIteration:
            raise ParseError(
                f"expected {num_nets} net lines, found {len(nets)}") from None
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ParseError("non-integer pin", lineno) from None
        if weighted_nets:
            if len(values) < 3:
                raise ParseError("weighted net needs weight + >=2 pins",
                                 lineno)
            net_weights.append(values[0])
            values = values[1:]
        if any(v < 1 or v > num_modules for v in values):
            raise ParseError("pin index out of range", lineno)
        nets.append([v - 1 for v in values])

    areas = None
    if weighted_modules:
        areas = []
        for _ in range(num_modules):
            try:
                lineno, tokens = next(lines)
            except StopIteration:
                raise ParseError(
                    f"expected {num_modules} module weight lines, found "
                    f"{len(areas)}") from None
            try:
                areas.append(float(tokens[0]))
            except ValueError:
                raise ParseError("non-numeric module weight", lineno) \
                    from None

    return Hypergraph(nets, num_modules=num_modules, areas=areas,
                      net_weights=net_weights if weighted_nets else None,
                      name=name)


def write_hmetis(hg: Hypergraph, path: PathLike) -> None:
    """Write ``hg`` in hMETIS format (weights emitted only when needed)."""
    weighted_nets = any(hg.net_weight(e) != 1 for e in hg.all_nets())
    weighted_modules = not hg.is_unit_area()
    fmt = (1 if weighted_nets else 0) + (10 if weighted_modules else 0)

    out: List[str] = []
    header = f"{hg.num_nets} {hg.num_modules}"
    if fmt:
        header += f" {fmt}"
    out.append(header)
    for e in hg.all_nets():
        pins = " ".join(str(v + 1) for v in hg.pins(e))
        if weighted_nets:
            out.append(f"{hg.net_weight(e)} {pins}")
        else:
            out.append(pins)
    if weighted_modules:
        for v in hg.modules():
            area = hg.area(v)
            out.append(str(int(area)) if area == int(area) else str(area))
    Path(path).write_text("\n".join(out) + "\n")


def read_are(path: PathLike) -> Dict[str, float]:
    """Read an ACM/SIGDA ``.are`` file: module name -> area."""
    areas: Dict[str, float] = {}
    text = _decode(Path(path).read_bytes())
    for lineno, tokens in _tokenized_lines(text):
        if len(tokens) != 2:
            raise ParseError("expected '<name> <area>'", lineno)
        try:
            value = float(tokens[1])
        except ValueError:
            raise ParseError("non-numeric area", lineno) from None
        if value <= 0:
            raise ParseError(f"non-positive area {value}", lineno)
        areas[tokens[0]] = value
    return areas


def read_netd(path: PathLike, are_path: Optional[PathLike] = None,
              name: str = "") -> Hypergraph:
    """Read an ACM/SIGDA netD netlist (optionally with module areas).

    Single-pin nets (common in the raw benchmarks) are dropped, as
    every partitioner in the paper's lineage does.  Module areas
    default to 1 unless ``are_path`` provides them, matching the
    paper's unit-area experimental setting.
    """
    lines = list(_tokenized_lines(_decode(Path(path).read_bytes())))
    if len(lines) < 5:
        raise ParseError("netD file needs 5 header lines")
    header_values = []
    for lineno, tokens in lines[:5]:
        try:
            header_values.append(int(tokens[0]))
        except ValueError:
            raise ParseError("non-integer header line", lineno) from None
    _ignored, num_pins, num_nets, num_modules, _pad_offset = header_values

    areas = read_are(are_path) if are_path is not None else {}
    builder = HypergraphBuilder(name=name or Path(path).stem,
                                skip_degenerate_nets=True)

    current: List[str] = []
    pin_count = 0
    for lineno, tokens in lines[5:]:
        if len(tokens) < 2:
            raise ParseError("expected '<name> <s|l> [dir]'", lineno)
        module, marker = tokens[0], tokens[1]
        if marker not in ("s", "l"):
            raise ParseError(f"pin marker must be 's' or 'l', got "
                             f"{marker!r}", lineno)
        builder.add_module(module, area=areas.get(module, 1.0))
        if marker == "s":
            if current:
                builder.add_net(current)
            current = [module]
        else:
            if not current:
                raise ParseError("continuation pin before any net start",
                                 lineno)
            current.append(module)
        pin_count += 1
    if current:
        builder.add_net(current)

    if pin_count != num_pins:
        raise ParseError(
            f"header declares {num_pins} pins, file contains {pin_count}")
    if builder.num_modules > num_modules:
        raise ParseError(
            f"header declares {num_modules} modules, file references "
            f"{builder.num_modules}")
    declared_nets = builder.num_nets + builder.dropped_nets
    if declared_nets != num_nets:
        raise ParseError(
            f"header declares {num_nets} nets, file contains "
            f"{declared_nets}")
    return builder.build()


def write_netd(hg: Hypergraph, path: PathLike,
               are_path: Optional[PathLike] = None) -> None:
    """Write ``hg`` in ACM/SIGDA netD format (cells named ``a<i>``).

    Net weights are not representable in netD; writing a weighted
    netlist raises rather than silently dropping information.  Areas go
    to ``are_path`` when given (they are not representable in the netD
    file itself).
    """
    if any(hg.net_weight(e) != 1 for e in hg.all_nets()):
        raise ParseError(
            "netD cannot represent net weights; use hMETIS or JSON")
    lines = ["0", str(hg.num_pins), str(hg.num_nets),
             str(hg.num_modules), "0"]
    for e in hg.all_nets():
        for i, v in enumerate(hg.pins(e)):
            marker = "s" if i == 0 else "l"
            lines.append(f"a{v} {marker} B")
    Path(path).write_text("\n".join(lines) + "\n")
    if are_path is not None:
        area_lines = []
        for v in hg.modules():
            area = hg.area(v)
            rendered = str(int(area)) if area == int(area) else str(area)
            area_lines.append(f"a{v} {rendered}")
        Path(are_path).write_text("\n".join(area_lines) + "\n")


def write_are(areas: Dict[str, float], path: PathLike) -> None:
    """Write a name -> area mapping in ``.are`` format."""
    lines = []
    for name, area in areas.items():
        rendered = str(int(area)) if area == int(area) else str(area)
        lines.append(f"{name} {rendered}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_json(path: PathLike) -> Hypergraph:
    """Read a hypergraph from this library's JSON container.

    Every malformed-input failure — syntactically invalid JSON, a
    non-object top level, missing keys, or values the
    :class:`Hypergraph` constructor rejects (non-list nets, pins out of
    range, mismatched weight vectors, ...) — surfaces as
    :class:`~repro.errors.ParseError`, with the line number where the
    JSON decoder can provide one, so the CLI's error contract holds
    for this format exactly as it does for hMETIS and netD.
    """
    try:
        data = json.loads(_decode(Path(path).read_bytes()))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(
            f"top-level JSON value must be an object, got "
            f"{type(data).__name__}")
    return netlist_from_dict(data)


def netlist_from_dict(data: Dict[str, object],
                      name: str = "") -> Hypergraph:
    """Build a hypergraph from the keys of this library's JSON
    container: ``nets`` and ``num_modules``, optional ``areas``,
    ``net_weights`` and ``name`` (``name`` when absent).

    Every way those keys can be wrong — a missing one, or a value the
    :class:`Hypergraph` constructor rejects (non-list nets, pins out of
    range or not integers, weights that do not fit, ...) — is a
    :class:`~repro.errors.ParseError`.

    Without ``areas`` the constructor allocates one area per module
    before it checks anything, so ``num_modules`` must then be an
    integer no larger than the number of pins the nets list: the
    allocation stays bounded by the input's size.
    """
    for key in ("num_modules", "nets"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    num_modules = data["num_modules"]
    if not isinstance(num_modules, int) or isinstance(num_modules, bool):
        raise ParseError(f"malformed netlist JSON: num_modules must be an "
                         f"integer, got {type(num_modules).__name__}")
    if data.get("areas") is None:
        try:
            listed = sum(len(net) for net in data["nets"])
        except TypeError:
            listed = None  # malformed nets: the constructor names them
        if listed is not None and num_modules > listed:
            raise ParseError(
                f"malformed netlist JSON: num_modules {num_modules} "
                f"exceeds the {listed} pins the nets list; a netlist with "
                f"modules on no net must give their areas")
    try:
        return Hypergraph(data["nets"], num_modules=num_modules,
                          areas=data.get("areas"),
                          net_weights=data.get("net_weights"),
                          name=data.get("name", name))
    except ParseError:
        raise
    except (ReproError, TypeError, ValueError, KeyError, IndexError,
            OverflowError) as exc:
        raise ParseError(f"malformed netlist JSON: {exc}") from None


def netlist_to_dict(hg: Hypergraph) -> Dict[str, object]:
    """``hg`` as the keys of this library's JSON container: the inverse
    of :func:`netlist_from_dict`."""
    return {
        "name": hg.name,
        "num_modules": hg.num_modules,
        "nets": [list(pins) for pins in hg.net_pins],
        "areas": hg.areas(),
        "net_weights": hg.net_weights(),
    }


def write_json(hg: Hypergraph, path: PathLike) -> None:
    """Write ``hg`` to this library's JSON container."""
    Path(path).write_text(json.dumps(netlist_to_dict(hg)))
