"""The Fiduccia–Mattheyses bipartitioning engine.

Implements classic FM (Section I) with the paper's specifics:

* gain buckets with a configurable LIFO/FIFO/RANDOM discipline
  (Section II-A, Table II),
* optional CLIP preprocessing of each pass (Section II-B, Table III),
* balance bounds ``A(V)/2 ± max(A(v*), r·A(V))`` (Section III-B),
* nets larger than ``max_net_size`` (200) excluded from refinement but
  re-included when quality is measured,
* rebalancing of infeasible initial solutions by random moves.

A *pass* moves previously-unmoved modules one at a time, always taking
the highest-gain balance-feasible module, and finally rolls the solution
back to the best prefix of the pass.  Passes repeat until one fails to
improve the cut.

Every hot kernel — initial gains, boundary scan, the two-phase gain
update loop of a pass — binds the hypergraph's kernel lists
(``net_pins``, ``module_nets``, ``weights_list``, ``areas_list``) into
locals and inlines the per-pin gain bumps.  One Python loop,
:func:`_move_loop_csr`, runs every configuration's pass, and
:func:`_rollback_csr` undoes the discarded tail move by move.

When the C compiler is at hand, the common configuration (LIFO
buckets, no boundary mode, no lookahead) runs compiled instead
(``_kernels.c``, built on first use by :mod:`repro.fm.native`): the
state and the gain bound come from one compiled sweep
(:meth:`PartitionState.compiled`) into the ``array`` buffers the pass
writes in place, and each pass — initial gains, bucket fill, the move
loop with a two-pin fast path, and a rollback from the shorter side of
the best prefix — is one compiled call (:func:`_c_pass`).  It makes the
same moves, picks the same best prefix and leaves the same state; the
Python loop is its reference and its fallback.

Both loops hand back each move as a ``(module, side, gain)`` triple,
``gain`` being the drop in internal cut, so a recorded run takes the
same loop as an unrecorded one: :func:`fm_bipartition` writes one
``pass`` event per pass from those triples (:mod:`repro.obs.recorder`).
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigError, PartitionError
from ..hypergraph import Hypergraph
from ..obs import metrics, recorder, tracer
from ..partition import (BalanceConstraint, Partition, PartitionState, cut,
                         random_partition)
from ..partition.rebalance import rebalance_random
from ..rng import SeedLike, make_rng
from .buckets import check_gain_bound, make_buckets
from .config import FMConfig

__all__ = ["FMResult", "fm_bipartition"]


@dataclass
class FMResult:
    """Outcome of one FM (or CLIP) run.

    ``cut`` is measured on the *full* netlist (large nets re-included);
    ``internal_cut`` is the engine's view over active nets only.
    """

    partition: Partition
    cut: int
    internal_cut: int
    initial_cut: int
    passes: int
    total_moves: int
    pass_cuts: List[int] = field(default_factory=list)


def _module_gain(state: PartitionState, v: int) -> int:
    """Weighted FM gain of moving module ``v`` to the other side."""
    hg = state.hg
    net_weights = hg.weights_list
    src = state.part_of[v]
    counts_src = state.counts[src]
    counts_dst = state.counts[1 - src]
    active = state.active
    g = 0
    for e in hg.module_nets[v]:
        if active[e]:
            w = net_weights[e]
            if counts_src[e] == 1:
                g += w
            if counts_dst[e] == 0:
                g -= w
    return g


def _initial_gains(state: PartitionState) -> List[int]:
    """Weighted FM gain of moving each module to the other side."""
    # Single flat sweep: no per-module function call, no per-pin
    # accessor dispatch.  The compiled pass computes the same vector
    # in the same module order.
    hg = state.hg
    net_weights = hg.weights_list
    part_of = state.part_of
    c0, c1 = state.counts[0], state.counts[1]
    active = state.active
    gains = [0] * hg.num_modules
    for v, nets_v in enumerate(hg.module_nets):
        if part_of[v]:
            counts_src, counts_dst = c1, c0
        else:
            counts_src, counts_dst = c0, c1
        g = 0
        for e in nets_v:
            if active[e]:
                w = net_weights[e]
                if counts_src[e] == 1:
                    g += w
                if counts_dst[e] == 0:
                    g -= w
        gains[v] = g
    return gains


def _boundary_modules(state: PartitionState) -> List[int]:
    """Modules incident to at least one cut active net."""
    module_nets = state.hg.module_nets
    spans = state.spans
    active = state.active
    out = []
    for v, nets_v in enumerate(module_nets):
        for e in nets_v:
            if active[e] and spans[e] > 1:
                out.append(v)
                break
    return out


def _lookahead_vector(state: PartitionState, locked_counts, v: int,
                      depth: int):
    """Level-2..depth Krishnamurthy gains of ``v`` (see FMConfig docs).

    ``locked_counts[p][e]`` counts locked pins of net ``e`` in part
    ``p``; free pins are total pins minus locked ones.
    """
    hg = state.hg
    src = state.part_of[v]
    dst = 1 - src
    counts_src = state.counts[src]
    counts_dst = state.counts[dst]
    locked_src = locked_counts[src]
    locked_dst = locked_counts[dst]
    active = state.active
    vec = [0] * (depth - 1)
    for e in hg.nets(v):
        if not active[e]:
            continue
        w = hg.net_weight(e)
        lock_a = locked_src[e]
        lock_b = locked_dst[e]
        free_a = counts_src[e] - lock_a
        free_b = counts_dst[e] - lock_b
        for k in range(2, depth + 1):
            if lock_a == 0 and free_a == k:
                vec[k - 2] += w
            if lock_b == 0 and free_b == k - 1:
                vec[k - 2] -= w
    return tuple(vec)


def _move_loop_csr(state: PartitionState, buckets, gains: List[int],
                   locked: List[bool], locked_counts, config: FMConfig,
                   areas, lower: float, upper: float
                   ) -> Tuple[List[Tuple[int, int, int]], int]:
    """One FM pass's select/move/update loop over the kernel lists.

    Selection takes the highest-gain balance-feasible module (with
    lookahead, the best level-2..r gain vector among the feasible
    members of the best bucket; first seen wins ties).  Gain updates
    run in two phases around the move — phase A off the pre-move
    counts, phase B off the post-move counts — with the kernel lists
    bound locally and the buckets' O(1) relink ``update``.  Returns
    the pass's ``(module, original side, gain)`` list, ``gain`` being
    the move's drop in internal cut, and the length of its best
    prefix.  A gain pushed outside the bucket range (gains that
    disagree with the state) raises :class:`PartitionError`.

    This is the only Python pass loop: every bucket discipline,
    boundary mode and lookahead run here.  It is also the reference of
    the compiled pass (``_kernels.c``), which :func:`fm_bipartition` runs
    instead in the common configuration — LIFO buckets, no boundary
    mode, no lookahead — when it loads: that pass makes exactly this
    loop's moves in this loop's bucket order.
    """
    cut_prev = state.cut_weight
    hg = state.hg
    module_nets = hg.module_nets
    net_pins = hg.net_pins
    net_weights = hg.weights_list
    part_of = state.part_of
    counts = state.counts
    active = state.active
    part_area = state.part_area
    boundary = config.boundary
    early_stall = config.early_exit_stall
    update = buckets.update
    iter_desc = buckets.iter_desc

    moves: List[Tuple[int, int, int]] = []
    best_cut = state.cut_weight
    best_index = 0
    stall = 0

    pending: set = set()
    if boundary:
        contains = buckets.contains

        def bump(u, delta):
            if contains(u):
                gains[u] += delta
                update(u, gains[u])
            else:
                # Newly on the boundary.  Its full gain is computed
                # once, from the post-move counts, after both update
                # phases finish — applying per-net deltas here would
                # double-count nets the fresh computation already
                # sees.
                pending.add(u)

    try:
        while len(buckets):
            chosen = -1
            if locked_counts is None:
                for v in iter_desc():
                    src = part_of[v]
                    a = areas[v]
                    if (part_area[src] - a >= lower
                            and part_area[1 - src] + a <= upper):
                        chosen = v
                        break
            else:
                best_vec = None
                chosen_gain = 0
                for v in iter_desc():
                    if chosen >= 0 and gains[v] != chosen_gain:
                        break
                    src = part_of[v]
                    a = areas[v]
                    if not (part_area[src] - a >= lower
                            and part_area[1 - src] + a <= upper):
                        continue
                    vec = _lookahead_vector(state, locked_counts, v,
                                            config.lookahead)
                    if chosen < 0 or vec > best_vec:
                        chosen = v
                        best_vec = vec
                        chosen_gain = gains[v]
            if chosen < 0:
                break  # no feasible move remains
            buckets.remove(chosen)
            locked[chosen] = True
            src = part_of[chosen]
            dst = 1 - src
            counts_dst = counts[dst]
            incident = module_nets[chosen]

            # Gain updates, phase A: inspect pre-move counts.
            for e in incident:
                if not active[e]:
                    continue
                cd = counts_dst[e]
                if cd == 0:
                    w = net_weights[e]
                    if boundary:
                        for u in net_pins[e]:
                            if not locked[u]:
                                bump(u, w)
                    else:
                        for u in net_pins[e]:
                            if not locked[u]:
                                g = gains[u] + w
                                gains[u] = g
                                update(u, g)
                elif cd == 1:
                    w = net_weights[e]
                    if boundary:
                        for u in net_pins[e]:
                            if not locked[u] and part_of[u] == dst:
                                bump(u, -w)
                                break
                    else:
                        for u in net_pins[e]:
                            if not locked[u] and part_of[u] == dst:
                                g = gains[u] - w
                                gains[u] = g
                                update(u, g)
                                break

            state.move(chosen, dst)
            cut_now = state.cut_weight
            moves.append((chosen, src, cut_prev - cut_now))
            cut_prev = cut_now
            if locked_counts is not None:
                bumped = locked_counts[dst]
                for e in incident:
                    if active[e]:
                        bumped[e] += 1

            # Gain updates, phase B: inspect post-move counts.
            counts_src = counts[src]
            for e in incident:
                if not active[e]:
                    continue
                cs = counts_src[e]
                if cs == 0:
                    w = net_weights[e]
                    if boundary:
                        for u in net_pins[e]:
                            if not locked[u]:
                                bump(u, -w)
                    else:
                        for u in net_pins[e]:
                            if not locked[u]:
                                g = gains[u] - w
                                gains[u] = g
                                update(u, g)
                elif cs == 1:
                    w = net_weights[e]
                    if boundary:
                        for u in net_pins[e]:
                            if not locked[u] and part_of[u] == src:
                                bump(u, w)
                                break
                    else:
                        for u in net_pins[e]:
                            if not locked[u] and part_of[u] == src:
                                g = gains[u] + w
                                gains[u] = g
                                update(u, g)
                                break

            if pending:
                for u in pending:
                    gains[u] = _module_gain(state, u)
                    buckets.insert(u, gains[u])
                pending.clear()

            if cut_now < best_cut:
                best_cut = cut_now
                best_index = len(moves)
                stall = 0
            else:
                stall += 1
                if early_stall is not None and stall >= early_stall:
                    break
    except ConfigError as exc:
        # A bucket operation refused a gain (one outside the bucket
        # range): the gains disagree with the state.  Named as the
        # compiled pass names it.
        raise PartitionError(str(exc)) from None
    return moves, best_index


def _rollback_csr(state: PartitionState,
                  moves: List[Tuple[int, int, int]],
                  best_index: int) -> None:
    """Roll the state back to the best prefix ``moves[:best_index]``:
    undo the discarded tail with :meth:`PartitionState.move`, last move
    first, which restores the objectives too."""
    move = state.move
    for v, original, _ in reversed(moves[best_index:]):
        move(v, original)


def _compiled_pass():
    """The compiled kernel module, or ``None`` (see
    :mod:`repro.fm.native`; imported here so that importing the engine
    never loads it)."""
    from .native import load
    return load()


def _c_pass(kernel, state: PartitionState, csr, fixed: bytes, moves,
            clip: bool, max_gain: int, lower: float, upper: float,
            early_stall: Optional[int]) -> Tuple[int, int, int]:
    """One compiled pass over a :meth:`PartitionState.compiled` state:
    initial gains, bucket fill, :func:`_move_loop_csr`'s moves and the
    rollback to its best prefix.  ``moves`` receives the pass's
    ``(module, side, gain)`` triples flattened; returns the number of
    moves, the best prefix length and the number of modules
    inserted."""
    c0, c1 = state.counts
    try:
        n_moves, best_index, cut_w, soed_w, inserted = kernel.fm_pass(
            state.part_of, c0, c1, state.spans, state.part_area, *csr,
            fixed, moves, clip, max_gain, lower, upper,
            -1 if early_stall is None else early_stall,
            state.cut_weight, state.soed_weight)
    except OverflowError as exc:
        raise PartitionError(str(exc)) from None
    state.cut_weight = cut_w
    state.soed_weight = soed_w
    return n_moves, best_index, inserted


def report_run(hg: Hypergraph, config: FMConfig, tr, t_run: int, mx,
               wall0: float, passes: int, moves: int, initial_cut: int,
               final_cut: int, loop: str) -> None:
    """Close one refinement call's ``fm.run`` span, which names the
    pass ``loop`` that ran (``"c"`` or ``"py"``), and its metrics."""
    if tr.enabled:
        tr.end("fm.run", t_run, {
            "modules": hg.num_modules, "engine": "fm", "loop": loop,
            "clip": config.clip, "passes": passes,
            "moves": moves, "initial_cut": initial_cut,
            "cut": final_cut,
        })
    if mx.enabled:
        mx.counter("repro_fm_runs_total",
                   "FM engine invocations", engine="fm").inc()
        mx.counter("repro_fm_passes_total",
                   "FM passes executed", engine="fm").inc(passes)
        mx.counter("repro_fm_moves_total",
                   "FM moves attempted", engine="fm").inc(moves)
        mx.histogram("repro_fm_run_seconds",
                     "Wall time of one FM invocation",
                     engine="fm").observe(time.perf_counter() - wall0)


def _start_state(kernel, hg: Hypergraph, initial: Partition,
                 config: FMConfig, active_list: Tuple[int, ...]
                 ) -> Tuple[PartitionState, int]:
    """The refinement state of ``initial`` and the gain bound: from the
    compiled sweep when ``kernel`` is loaded, else from the Python
    sweep and :meth:`Hypergraph.max_weighted_degree`."""
    if kernel is None:
        return (PartitionState(hg, initial, active_nets=active_list),
                hg.max_weighted_degree(config.max_net_size))
    return PartitionState.compiled(kernel, hg, initial, config.max_net_size)


def _py_pass(state: PartitionState, config: FMConfig,
             fixed: Optional[List[bool]], candidates, bucket_range: int,
             rng: random.Random, lower: float, upper: float
             ) -> Tuple[List[Tuple[int, int, int]], int, int]:
    """One pass in Python: fill the buckets, run the move loop, roll
    back to the best prefix.  Returns the pass's ``(module, side,
    gain)`` moves, the best prefix length and the number of modules
    inserted."""
    hg = state.hg
    part_of = state.part_of
    buckets = make_buckets(hg.num_modules, bucket_range,
                           config.bucket_policy, rng)

    if config.clip:
        # CLIP: concatenate all buckets into the zero bucket, best
        # initial gain first, then track only gain *changes*.  With
        # LIFO insertion (at head) ascending order leaves the best
        # gain at the head; with FIFO (at tail) descending does.
        gains = _initial_gains(state)
        order = sorted(candidates, key=gains.__getitem__)
        if config.bucket_policy == "fifo":
            order.reverse()
        for v in order:
            buckets.insert(v, 0)
        gains = [0] * hg.num_modules
    elif config.boundary:
        # Boundary refinement (Section V / Chaco [22]): only
        # cut-incident modules enter the structure; the rest are
        # inserted on demand when a move pulls them onto the
        # boundary.
        gains = [0] * hg.num_modules
        for v in _boundary_modules(state):
            if fixed is None or not fixed[v]:
                gains[v] = _module_gain(state, v)
                buckets.insert(v, gains[v])
    else:
        gains = _initial_gains(state)
        for v in candidates:
            buckets.insert(v, gains[v])

    locked = [bool(f) for f in fixed] if fixed is not None \
        else [False] * hg.num_modules
    locked_counts = ([[0] * hg.num_nets, [0] * hg.num_nets]
                     if config.lookahead > 1 else None)
    if locked_counts is not None and fixed is not None:
        # Pre-assigned modules behave as locked pins for the
        # lookahead binding numbers from the very start.
        for v in hg.modules():
            if fixed[v]:
                side = part_of[v]
                for e in hg.nets(v):
                    if state.active[e]:
                        locked_counts[side][e] += 1

    inserted = len(buckets)
    moves, best_index = _move_loop_csr(state, buckets, gains, locked,
                                       locked_counts, config,
                                       hg.areas_list, lower, upper)
    _rollback_csr(state, moves, best_index)
    return moves, best_index, inserted


def fm_bipartition(hg: Hypergraph,
                   initial: Optional[Partition] = None,
                   config: Optional[FMConfig] = None,
                   balance: Optional[BalanceConstraint] = None,
                   seed: SeedLike = None,
                   rng: Optional[random.Random] = None,
                   fixed: Optional[List[bool]] = None) -> FMResult:
    """Refine (or create) a bipartitioning of ``hg`` with FM.

    This is the ``FMPartition`` procedure of Figure 2: when ``initial``
    is ``None`` a random balanced starting solution is generated; an
    infeasible starting solution is first rebalanced by random moves.
    ``fixed`` marks modules that may never move (pre-assigned pads /
    propagated terminals, Section III-C); they keep their ``initial``
    side throughout.
    """
    config = config or FMConfig()
    rng = rng if rng is not None else make_rng(seed)
    # Observability: sampled once per call; per-pass event construction
    # is guarded so dormant instrumentation costs only these reads.
    tr = tracer()
    trace_on = tr.enabled
    mx = metrics()
    rec = recorder()
    rec_on = rec.enabled
    t_run = tr.begin() if trace_on else 0
    wall0 = time.perf_counter() if mx.enabled else 0.0
    if balance is None:
        balance = BalanceConstraint.from_tolerance(hg, config.tolerance, k=2)
    if initial is None:
        initial = random_partition(hg, k=2, rng=rng)
    elif initial.k != 2:
        raise PartitionError(
            f"bipartition refinement requires k=2, got k={initial.k}")
    if fixed is not None and len(fixed) != hg.num_modules:
        raise PartitionError(
            f"fixed has length {len(fixed)}, expected {hg.num_modules}")

    # The common configuration runs compiled when the kernels load.
    kernel = None
    if (config.lookahead <= 1 and not config.boundary
            and config.bucket_policy == "lifo"):
        kernel = _compiled_pass()
    active_list = hg.active_nets(config.max_net_size)
    state, max_gain = _start_state(kernel, hg, initial, config, active_list)
    if not balance.is_feasible(state.part_area):
        # An infeasible start is rebalanced by random moves (Section
        # III-B).
        movable = [not f for f in fixed] if fixed is not None else None
        initial = rebalance_random(hg, initial, balance, rng=rng,
                                   movable=movable)
        state, max_gain = _start_state(kernel, hg, initial, config,
                                       active_list)
    bucket_range = 2 * max_gain if config.clip else max_gain
    check_gain_bound(bucket_range)
    if rec_on:
        rec.emit({"t": "fm", "l": rec.level, "n": hg.num_modules,
                  "mns": config.max_net_size, "np": 0,
                  "clip": int(config.clip), "c": state.cut_weight,
                  "init": "".join(map(str, initial.assignment))})

    # With every net active the state's incremental cut is the full
    # netlist's (the state tests pin the two equal), so the O(pins)
    # re-measurements are only needed when large nets were excluded.
    all_active = len(active_list) == hg.num_nets
    initial_cut = state.cut_weight if all_active else cut(hg, initial)
    best_overall = state.cut_weight
    passes = 0
    total_moves = 0
    pass_cuts: List[int] = []
    max_passes = config.max_passes or 1000

    lower, upper = balance.lower, balance.upper
    candidates = range(hg.num_modules) if fixed is None \
        else [v for v in range(hg.num_modules) if not fixed[v]]

    if kernel is not None:
        csr = hg.active_csr(config.max_net_size)
        fixed_bytes = (bytes(map(bool, fixed)) if fixed is not None
                       else bytes(hg.num_modules))
        move_buf = array("i", [0]) * (3 * hg.num_modules)

    while passes < max_passes:
        passes += 1
        t_pass = tr.now() if trace_on else 0
        cut_before = state.cut_weight
        if kernel is not None:
            n_moves, best_index, bucket_inserts = _c_pass(
                kernel, state, csr, fixed_bytes, move_buf, config.clip,
                bucket_range, lower, upper, config.early_exit_stall)
            if rec_on:
                modules = move_buf[0:3 * n_moves:3].tolist()
                gains = move_buf[2:3 * n_moves:3].tolist()
        else:
            moves, best_index, bucket_inserts = _py_pass(
                state, config, fixed, candidates, bucket_range, rng,
                lower, upper)
            n_moves = len(moves)
            if rec_on:
                modules = [v for v, _, _ in moves]
                gains = [g for _, _, g in moves]
        total_moves += n_moves
        pass_cuts.append(state.cut_weight)
        if rec_on:
            rec.emit({"t": "pass", "p": passes, "k": best_index,
                      "mv": n_moves, "c": state.cut_weight,
                      "a0": state.part_area[0], "m": modules, "g": gains})

        if trace_on:
            # Every counter here is a pure function of the move
            # sequence, so the per-pass telemetry agrees with the
            # recorder's ``pass`` events.
            tr.complete("fm.pass", t_pass, {
                "pass": passes,
                "moves_attempted": n_moves,
                "moves_committed": best_index,
                "rollback_depth": n_moves - best_index,
                "bucket_inserts": bucket_inserts,
                "bucket_ops": bucket_inserts + n_moves,
                "cut_before": cut_before,
                "cut_after": state.cut_weight,
                "gain": cut_before - state.cut_weight,
            })

        if state.cut_weight >= best_overall:
            break
        best_overall = state.cut_weight

    final = state.to_partition()
    final_cut = state.cut_weight if all_active else cut(hg, final)
    report_run(hg, config, tr, t_run, mx, wall0, passes, total_moves,
               initial_cut, final_cut, "py" if kernel is None else "c")
    return FMResult(partition=final,
                    cut=final_cut,
                    internal_cut=state.cut_weight,
                    initial_cut=initial_cut,
                    passes=passes,
                    total_moves=total_moves,
                    pass_cuts=pass_cuts)
