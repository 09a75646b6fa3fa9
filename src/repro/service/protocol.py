"""Wire protocol of the partitioning service.

Requests and responses are plain JSON objects.  This module owns the
schema: parsing and validating request bodies, and deriving the two
identities everything downstream keys on:

* the **netlist key** — a digest of the circuit itself, independent of
  how it was submitted (inline container, generator spec, or a
  server-side file), so the same circuit shares parsed-netlist and
  hierarchy cache entries across submission styles;
* the **request key** — SHA-256 of the canonical (netlist, config,
  seed, runs) tuple, the result cache's key and the coalescer's
  in-flight identity.  It deliberately excludes scheduling knobs
  (worker count, tracing): the runtime's determinism contract says
  those never change outcomes, so they must never split cache entries.

Validation failures raise :class:`ProtocolError` carrying the HTTP
status the server should answer with; nothing in this module does IO
beyond reading a ``path`` netlist spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ReproError
from ..hypergraph import (Hypergraph, load_circuit, netlist_from_dict,
                          netlist_to_dict, read_hmetis, read_json)
from ..solvers import ALGORITHMS, ML_ENGINE_OF

__all__ = ["SCHEMA_VERSION", "MAX_DEADLINE_MS", "HEADER_REQUEST_ID",
           "HEADER_TRACE_ID", "ProtocolError", "NetlistSpec",
           "PartitionRequest", "canonical_json", "netlist_digest",
           "inline_netlist"]

#: Version stamped into every response envelope.
SCHEMA_VERSION = 1

#: Correlation headers — part of the wire contract.  Clients may
#: supply either on any request; the server echoes both back (headers
#: and, on ``/partition``, the response body) after sanitising, and
#: generates them when absent.  ``trace_id`` defaults to
#: ``request_id`` when only the latter is present.
HEADER_REQUEST_ID = "X-Request-Id"
HEADER_TRACE_ID = "X-Trace-Id"

#: Modes a request may execute under.  ``fresh`` is CLI-identical
#: (every start coarsens for itself); ``ml-reuse`` coarsens once per
#: (netlist, config, hierarchy_seed) and shares that hierarchy across
#: requests — faster, deterministic, but a different experiment than
#: the CLI's default path (and documented as such).
MODES = ("fresh", "ml-reuse")

#: Hex digits kept of netlist/request digests.  Longer than the result
#: fingerprint's 16 — request keys index a cache, where an accidental
#: collision would serve a wrong answer rather than just mislabel a
#: ledger row.
_KEY_LENGTH = 32


#: Upper bound accepted for a request's ``deadline_ms`` (one hour) —
#: matching the runtime's own finite collection ceiling: nothing in
#: the service is allowed to wait unboundedly.
MAX_DEADLINE_MS = 3_600_000


class ProtocolError(ReproError):
    """A malformed or unserviceable request; ``status`` is the HTTP
    answer (400 for bad bodies, 404 for unknown resources, 429 for
    load shed, 504 for an exhausted deadline, ...).  ``retry_after``,
    when set, is surfaced as a ``Retry-After`` header so shed clients
    know when the queue is likely to have drained."""

    def __init__(self, message: str, status: int = 400,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for every digest in the
    protocol (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(
        canonical_json(obj).encode("utf-8")).hexdigest()[:_KEY_LENGTH]


def netlist_digest(hg: Hypergraph) -> str:
    """Digest of a parsed netlist's full structure (nets, areas,
    weights, name) — the submission-independent circuit identity."""
    return _digest(netlist_to_dict(hg))


#: ``hg`` as the inline-container dict a request embeds: the dict
#: :func:`repro.hypergraph.write_json` writes.
inline_netlist = netlist_to_dict


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _typed(data: Dict[str, object], key: str, kind, default):
    """Fetch ``key`` coerced to ``kind``; bools never pass as ints."""
    if key not in data:
        return default
    value = data[key]
    if kind is float and isinstance(value, int) \
            and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise ProtocolError(
            f"field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}")
    return value


@dataclass
class NetlistSpec:
    """One of three ways a request names its circuit.

    * ``{"netlist": {"inline": {...}}}`` — the JSON netlist container
      (``nets``, ``num_modules``, optional ``areas``/``net_weights``/
      ``name``), identical to ``repro generate -o x.json`` output;
    * ``{"netlist": {"generate": {"name": ..., "scale": ..., "seed":
      ...}}}`` — a synthetic Table I stand-in built server-side;
    * ``{"netlist": {"path": "circuit.hgr"}}`` — a file readable by the
      *server* (``.hgr`` or ``.json``), hashed at parse time so a file
      that changes on disk can never poison the cache.
    """

    kind: str
    inline: Optional[Dict[str, object]] = None
    name: str = ""
    scale: float = 1.0
    seed: int = 0
    path: Optional[str] = None
    #: Identity payload; for ``path`` specs the file's bytes are folded
    #: in here at parse time.
    key: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: object) -> "NetlistSpec":
        _require(isinstance(data, dict), "field 'netlist' must be an object")
        kinds = [k for k in ("inline", "generate", "path") if k in data]
        _require(len(kinds) == 1,
                 "field 'netlist' must contain exactly one of "
                 "'inline', 'generate', 'path'")
        kind = kinds[0]
        if kind == "inline":
            inline = data["inline"]
            _require(isinstance(inline, dict),
                     "netlist.inline must be a netlist container object")
            for required in ("nets", "num_modules"):
                _require(required in inline,
                         f"netlist.inline is missing {required!r}")
            return cls(kind="inline", inline=inline,
                       key={"kind": "inline", "digest": _digest(inline)})
        if kind == "generate":
            spec = data["generate"]
            _require(isinstance(spec, dict),
                     "netlist.generate must be an object")
            name = _typed(spec, "name", str, None)
            _require(bool(name), "netlist.generate needs a circuit 'name'")
            scale = _typed(spec, "scale", float, 1.0)
            seed = _typed(spec, "seed", int, 0)
            _require(scale > 0, "netlist.generate scale must be positive")
            return cls(kind="generate", name=name, scale=scale, seed=seed,
                       key={"kind": "generate", "name": name,
                            "scale": scale, "seed": seed})
        path = data["path"]
        _require(isinstance(path, str) and bool(path),
                 "netlist.path must be a non-empty string")
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ProtocolError(
                f"netlist path {path!r} is not readable by the server: "
                f"{exc}", status=400)
        digest = hashlib.sha256(raw).hexdigest()[:_KEY_LENGTH]
        return cls(kind="path", path=path,
                   key={"kind": "path", "digest": digest})

    def load(self) -> Hypergraph:
        """Parse/generate the hypergraph (potentially expensive — the
        engine calls this off the event loop, behind its netlist
        cache)."""
        if self.kind == "inline":
            try:
                return netlist_from_dict(self.inline, name="inline")
            except ReproError as exc:
                raise ProtocolError(f"invalid inline netlist: {exc}")
        if self.kind == "generate":
            try:
                return load_circuit(self.name, scale=self.scale,
                                    seed=self.seed)
            except ReproError as exc:
                raise ProtocolError(f"invalid generate spec: {exc}")
        try:
            if self.path.endswith(".json"):
                return read_json(self.path)
            return read_hmetis(self.path)
        except (ReproError, OSError) as exc:
            raise ProtocolError(
                f"could not read netlist {self.path!r}: {exc}")


@dataclass
class PartitionRequest:
    """A validated ``POST /partition`` body.

    Fields mirror ``repro partition``'s flags; scheduling knobs the
    determinism contract excludes from outcomes (worker count, trace)
    are accepted but never reach :meth:`request_key`.
    """

    netlist: NetlistSpec
    algorithm: str = "mlc"
    k: int = 2
    ratio: float = 0.5
    threshold: int = 35
    tolerance: float = 0.1
    runs: int = 1
    seed: int = 0
    vcycles: int = 0
    descents: int = 20
    mode: str = "fresh"
    hierarchy_seed: int = 0
    include_assignment: bool = False
    trace: bool = False
    #: Decision recording for this request (``GET /record/<id>`` serves
    #: the file).  Like ``trace``, a scheduling/observability knob:
    #: never part of the request key, and recorded requests bypass the
    #: cache and the batcher so the recording covers a real execution.
    record: bool = False
    #: Per-request wall-clock deadline in milliseconds; ``None`` means
    #: the server default applies.  Like the other scheduling knobs it
    #: never reaches the request key: a *complete* result is
    #: deadline-independent, and degraded (partial) results are never
    #: cached, so one cache entry serves every deadline.
    deadline_ms: Optional[int] = None

    _FIELDS = ("netlist", "algorithm", "k", "ratio", "threshold",
               "tolerance", "runs", "seed", "vcycles", "descents", "mode",
               "hierarchy_seed", "include_assignment", "trace", "record",
               "deadline_ms")

    @classmethod
    def from_json(cls, data: object) -> "PartitionRequest":
        _require(isinstance(data, dict), "request body must be a JSON object")
        unknown = sorted(set(data) - set(cls._FIELDS))
        _require(not unknown,
                 f"unknown request field(s): {', '.join(unknown)}")
        _require("netlist" in data, "request needs a 'netlist' spec")
        request = cls(
            netlist=NetlistSpec.from_json(data["netlist"]),
            algorithm=_typed(data, "algorithm", str, "mlc"),
            k=_typed(data, "k", int, 2),
            ratio=_typed(data, "ratio", float, 0.5),
            threshold=_typed(data, "threshold", int, 35),
            tolerance=_typed(data, "tolerance", float, 0.1),
            runs=_typed(data, "runs", int, 1),
            seed=_typed(data, "seed", int, 0),
            vcycles=_typed(data, "vcycles", int, 0),
            descents=_typed(data, "descents", int, 20),
            mode=_typed(data, "mode", str, "fresh"),
            hierarchy_seed=_typed(data, "hierarchy_seed", int, 0),
            include_assignment=_typed(data, "include_assignment", bool,
                                      False),
            trace=_typed(data, "trace", bool, False),
            record=_typed(data, "record", bool, False),
            deadline_ms=_typed(data, "deadline_ms", int, None),
        )
        _require(request.algorithm in ALGORITHMS,
                 f"unknown algorithm {request.algorithm!r} "
                 f"(expected one of {', '.join(ALGORITHMS)})")
        _require(request.mode in MODES,
                 f"unknown mode {request.mode!r} "
                 f"(expected one of {', '.join(MODES)})")
        _require(request.k >= 2, "k must be >= 2")
        _require(request.runs >= 1, "runs must be >= 1")
        _require(request.runs <= 10_000, "runs must be <= 10000")
        _require(0.0 < request.ratio <= 1.0, "ratio must be in (0, 1]")
        _require(request.threshold >= 1, "threshold must be >= 1")
        _require(0.0 <= request.tolerance < 1.0,
                 "tolerance must be in [0, 1)")
        _require(request.vcycles >= 0, "vcycles must be >= 0")
        _require(request.descents >= 1, "descents must be >= 1")
        if request.deadline_ms is not None:
            _require(request.deadline_ms >= 1,
                     "deadline_ms must be >= 1")
            _require(request.deadline_ms <= MAX_DEADLINE_MS,
                     f"deadline_ms must be <= {MAX_DEADLINE_MS}")
        if request.mode == "ml-reuse":
            _require(request.algorithm in ML_ENGINE_OF,
                     "mode 'ml-reuse' requires a multilevel algorithm "
                     "(mlc/mlf)")
            _require(request.k == 2 and request.vcycles == 0,
                     "mode 'ml-reuse' supports k=2 without vcycles")
        return request

    def config_key(self) -> Dict[str, object]:
        """The outcome-shaping knobs *minus* seed and runs — the level
        at which same-netlist requests are batchable.  Every knob here
        is a request field, so equal keys mean equal answers.
        """
        key = {
            "algorithm": self.algorithm, "k": self.k, "ratio": self.ratio,
            "threshold": self.threshold, "tolerance": self.tolerance,
            "vcycles": self.vcycles, "descents": self.descents,
            "mode": self.mode,
        }
        if self.mode == "ml-reuse":
            key["hierarchy_seed"] = self.hierarchy_seed
        return key

    def batch_key(self) -> str:
        """Identity of the request's batch group: same netlist, same
        config, any seed/runs."""
        return _digest({"netlist": self.netlist.key,
                        "config": self.config_key()})

    def request_key(self) -> str:
        """The cache/coalescing key: netlist + config + seed + runs."""
        return _digest({"netlist": self.netlist.key,
                        "config": self.config_key(),
                        "seed": self.seed, "runs": self.runs})
