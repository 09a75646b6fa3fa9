"""Per-layer attribution, measured from the benchmark's side.

A traced run replaces the names through which each layer is called
(``repro.core.ml.match``, ``repro.cli.read_hmetis``, ...) with timing
wrappers.  Nothing inside ``src/`` changes; the untraced run never
installs them.

Pool workers inherit the wrappers through ``fork``.  Their totals come
back on the result object of each start: the wrapped ``Algorithm``
opens a fresh clock per start and attaches it to the result, and the
wrapped executor ``run`` methods fold it into the parent's clock before
anyone else sees the records.  Serial starts take the same path, so
each start is counted once whichever executor ran it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pickle
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute a start's clock rides on from worker to parent.
ATTR = "_bench_layers"

Target = Tuple[str, str, str]

#: ``(module, attribute, kind)`` shared by the CLI and the daemon.
_ALGORITHM_TARGETS: List[Target] = [
    ("repro.solvers", "ml_bipartition", "core"),
    ("repro.core.ml", "match", "match"),
    ("repro.core.ml", "induce", "induce"),
    ("repro.core.ml", "project", "project"),
    ("repro.core.ml", "fm_bipartition", "fm"),
    ("repro.core.ml", "cut", "cut"),
    ("repro.runtime.executor", "SerialExecutor.run", "executor"),
    ("repro.runtime.executor", "ProcessExecutor.run", "executor"),
]

CLI_TARGETS: List[Target] = [
    ("repro.cli", "read_hmetis", "parse"),
    ("repro.cli", "cut", "cut"),
    ("repro.cli", "build_algorithm", "algorithm"),
] + _ALGORITHM_TARGETS

SERVICE_TARGETS: List[Target] = [
    ("repro.service.protocol", "NetlistSpec.load", "parse"),
    ("repro.service.engine", "build_algorithm", "algorithm"),
] + _ALGORITHM_TARGETS


class Clock:
    """Running totals for one scope: the process, or one start."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        #: Seconds each start waited between its executor call and
        #: the moment it began running.
        self.waits: List[float] = []

    def add(self, key: str, value: float = 1.0) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)


class LayerTracer:
    """Installs the wrappers and owns the clocks they write to."""

    def __init__(self) -> None:
        self.root = Clock()
        self._stack = [self.root]
        #: Kinds with at least one target that no longer exists.
        self.missing: List[str] = []

    @property
    def clock(self) -> Clock:
        return self._stack[-1]

    def install(self, targets: List[Target]) -> None:
        for module_name, attribute, kind in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(kind)
                continue
            setattr(owner, name, getattr(self, "_wrap_" + kind)(original))

    def snapshot(self) -> Dict[str, object]:
        return {"totals": dict(self.root.totals),
                "waits": list(self.root.waits),
                "missing": sorted(set(self.missing))}

    # -- wrappers ------------------------------------------------------

    def _leaf(self, fn: Callable, key: Callable[[tuple, dict], str],
              observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            began = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - began
            clock = self.clock
            clock.add(key(args, kwargs), elapsed)
            clock.add("leaf_s", elapsed)
            if observe is not None:
                observe(clock, result)
            return result
        return wrapper

    def _wrap_parse(self, fn):
        return self._leaf(fn, lambda a, k: "parse_s")

    def _wrap_cut(self, fn):
        return self._leaf(fn, lambda a, k: "cut_s")

    def _wrap_induce(self, fn):
        return self._leaf(fn, lambda a, k: "induce_s")

    def _wrap_project(self, fn):
        return self._leaf(fn, lambda a, k: "project_s")

    def _wrap_match(self, fn):
        def observe(clock: Clock, clustering) -> None:
            clock.add("match_calls")
            clock.add("matched_frac_sum", clustering.matched_fraction())
        return self._leaf(fn, lambda a, k: "match_s", observe)

    def _wrap_fm(self, fn):
        def phase(args, kwargs) -> str:
            initial = kwargs.get("initial", args[1] if len(args) > 1 else None)
            return "fm_initial_s" if initial is None else "fm_refine_s"

        def observe(clock: Clock, result) -> None:
            clock.add("fm_calls")
            clock.add("fm_passes", result.passes)
            clock.add("fm_moves", result.total_moves)
            clock.add("fm_gain", result.initial_cut - result.cut)
        return self._leaf(fn, phase, observe)

    def _wrap_core(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock = self.clock
            leaves = clock.get("leaf_s")
            began = time.perf_counter()
            result = fn(*args, **kwargs)
            clock.add("core_s", time.perf_counter() - began)
            clock.add("core_children_s", clock.get("leaf_s") - leaves)
            clock.add("core_runs")
            clock.add("core_levels", result.levels)
            return result
        return wrapper

    def _wrap_algorithm(self, build):
        tracer = self

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            algorithm = build(*args, **kwargs)
            inner = algorithm.fn

            def timed_start(hg, seed):
                clock = Clock()
                tracer._stack.append(clock)
                began = time.perf_counter()
                try:
                    result = inner(hg, seed)
                finally:
                    tracer._stack.pop()
                try:
                    setattr(result, ATTR, {"began": began,
                                           "totals": clock.totals})
                except AttributeError:
                    pass  # slotted result: this start's layers are lost
                return result
            return dataclasses.replace(algorithm, fn=timed_start)
        return wrapper

    def _wrap_executor(self, run):
        tracer = self

        @functools.wraps(run)
        def wrapper(executor, portfolio, *args, **kwargs):
            began = time.perf_counter()
            outcome = run(executor, portfolio, *args, **kwargs)
            clock = tracer.clock
            start_wall = 0.0
            for record in outcome.records:
                clock.add("starts")
                start_wall += record.wall_seconds
                if record.status != "ok":
                    clock.add("start_errors")
                attached = (record.result.__dict__.pop(ATTR, None)
                            if hasattr(record.result, "__dict__") else None)
                if attached is not None:
                    for key, value in attached["totals"].items():
                        clock.add(key, value)
                    clock.waits.append(attached["began"] - began)
                clock.add("result_bytes", len(pickle.dumps(record)))
            clock.add("exec_runs")
            clock.add("start_wall_s", start_wall)
            clock.add("exec_capacity_s", outcome.jobs * outcome.wall_seconds)
            clock.add("overhead_s",
                      outcome.wall_seconds - start_wall / outcome.jobs)
            return outcome
        return wrapper


#: Per-layer metric -> the wrapper kinds it is computed from.
LAYER_KINDS: Dict[str, Tuple[str, ...]] = {
    "hypergraph.parse_s": ("parse",),
    "clustering.match_s": ("match", "algorithm", "executor"),
    "clustering.induce_s": ("induce", "algorithm", "executor"),
    "clustering.project_s": ("project", "algorithm", "executor"),
    "clustering.levels": ("core", "algorithm", "executor"),
    "clustering.matched_frac": ("match", "algorithm", "executor"),
    "fm.initial_s": ("fm", "algorithm", "executor"),
    "fm.refine_s": ("fm", "algorithm", "executor"),
    "fm.calls": ("fm", "algorithm", "executor"),
    "fm.passes": ("fm", "algorithm", "executor"),
    "fm.moves": ("fm", "algorithm", "executor"),
    "fm.moves_per_s": ("fm", "algorithm", "executor"),
    "fm.gain_per_kmove": ("fm", "algorithm", "executor"),
    "partition.cut_s": ("cut",),
    "core.residual_s": ("core", "match", "induce", "project", "fm", "cut",
                        "algorithm", "executor"),
    "core.attributed_frac": ("core", "match", "induce", "project", "fm",
                             "cut", "algorithm", "executor"),
    "runtime.start_wall_s": ("executor",),
    "runtime.overhead_s": ("executor",),
    "runtime.parallel_eff": ("executor",),
    "runtime.result_bytes": ("executor",),
}


def layer_metrics(snapshot: Dict[str, object],
                  operations: int) -> Dict[str, Optional[float]]:
    """The per-layer numbers of one traced phase of ``operations``
    operations; a metric whose wrapped call has gone missing is
    ``None``."""
    t = snapshot["totals"]

    def get(key: str) -> float:
        return t.get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fm_s = get("fm_initial_s") + get("fm_refine_s")
    values = {
        "hypergraph.parse_s": get("parse_s") / operations,
        "clustering.match_s": get("match_s") / operations,
        "clustering.induce_s": get("induce_s") / operations,
        "clustering.project_s": get("project_s") / operations,
        "clustering.levels": ratio(get("core_levels"), get("core_runs")),
        "clustering.matched_frac": ratio(get("matched_frac_sum"),
                                         get("match_calls")),
        "fm.initial_s": get("fm_initial_s") / operations,
        "fm.refine_s": get("fm_refine_s") / operations,
        "fm.calls": get("fm_calls") / operations,
        "fm.passes": get("fm_passes") / operations,
        "fm.moves": get("fm_moves") / operations,
        "fm.moves_per_s": ratio(get("fm_moves"), fm_s),
        "fm.gain_per_kmove": ratio(get("fm_gain"), get("fm_moves") / 1000),
        "partition.cut_s": get("cut_s") / operations,
        "core.residual_s": (get("core_s") - get("core_children_s"))
        / operations,
        "core.attributed_frac": ratio(get("core_children_s"), get("core_s")),
        "runtime.start_wall_s": ratio(get("start_wall_s"), get("starts")),
        "runtime.overhead_s": ratio(get("overhead_s"), get("exec_runs")),
        "runtime.parallel_eff": ratio(get("start_wall_s"),
                                      get("exec_capacity_s")),
        "runtime.result_bytes": ratio(get("result_bytes"), get("starts")),
    }
    missing = set(snapshot["missing"])
    return {name: (None if missing & set(LAYER_KINDS[name]) else value)
            for name, value in values.items()}
