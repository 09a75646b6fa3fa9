"""Batched (vectorized) FM-style refinement: the ``mlb`` engine.

The sequential FM pass is inherently serial — each move's gain update
feeds the next selection — so it cannot be vectorized move by move
without losing exactly the property that makes it fast.  The batch
engine (``MLConfig.engine="batch"``, the ``mlb`` algorithm) therefore
swaps the *pass interior* for a batched gain-descent in the style of
label-propagation / Jet-like refiners used by parallel multilevel
partitioners (Mt-KaHyPar's LP refinement, arXiv:1511.03137 lineage):
each *round* computes the full gain vector with one
:meth:`~repro.hypergraph.npview.NumpyIncidence.initial_gains2` sweep,
takes the positive-gain candidates sorted by ``(-gain, id)``, trims
each direction's prefix to the balance window with a cumulative area
``searchsorted``, applies the whole batch with one scatter-add over
incident nets, and keeps it iff the recomputed internal cut improved —
otherwise the larger side's prefix is halved and retried (a single
positive-gain move always improves, so a round either commits or
proves no feasible positive candidate remains).  Moved modules lock
for the rest of the pass, passes repeat until one fails to improve,
exactly the outer FM discipline.

It is a different algorithm from the exact engines (DESIGN.md §13):

* moves commit in batches without intra-batch gain updates, so the
  move sequence — and hence tie-breaking — differs from bucket FM;
* only improving batches commit: there is no within-pass hill climb
  with rollback-to-best-prefix (rollback depth is always zero);
* CLIP preprocessing, bucket disciplines (LIFO/FIFO/random), boundary
  mode, and ``early_exit_stall`` are bucket-structure concepts with no
  batched analogue — the batched pass treats those configurations
  identically (their RNG draws are simply not made);
* balance trimming drops the *lowest-gain suffix* of an infeasible
  direction, where sequential FM would skip an oversized module and
  still take smaller lower-gain ones;
* an infeasible starting solution is repaired cut-aware
  (:func:`repair_balance`) before falling back to random moves.

Everything else — the active-net threshold, balance window, ``fixed``
modules, ``max_passes``, pass/cut accounting — matches the sequential
engines.  Netlists below :data:`NP_ENGINE_MIN_MODULES` (and any
``lookahead > 1`` configuration) run the exact sequential engine
(:func:`~repro.fm.engine.fm_bipartition`): at the coarsest levels
quality hinges on the exact hill-climbing pass and the arrays are too
small to amortise dispatch.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Tuple

import numpy as np

from ..hypergraph import Hypergraph
from ..obs import metrics, recorder, tracer
from ..partition import BalanceConstraint, Partition
from ..rng import SeedLike, make_rng
from .config import FMConfig
from .engine import FMResult, fm_bipartition, prepare_start, report_run

__all__ = ["NP_ENGINE_MIN_MODULES", "batch_bipartition", "batch_refine",
           "repair_balance"]

# Below this module count the sequential exact pass wins on both time
# (fixed ndarray-dispatch overhead per round) and quality (exact
# hill-climbing matters most on coarse netlists).
NP_ENGINE_MIN_MODULES = 128


def repair_balance(hg: Hypergraph, initial: Partition, config: FMConfig,
                   balance: BalanceConstraint,
                   fixed: Optional[List[bool]]) -> Optional[Partition]:
    """Cut-aware rebalancing of an infeasible projected bipartition.

    The paper rebalances by *random* moves from the heavy side — cheap,
    but it can shred a good projected solution, and the batched engine
    recovers less of that damage than sequential FM does.  The numpy
    mode instead moves a prefix of the heavy side's modules in
    stale-gain order (highest gain first — those moves cost the least
    cut, often improving it).  The balance window is at least two
    maximum module areas wide (``A(V)/2 ± max(A(v*), r·A(V))``), so no
    single move can step over it and the first prefix that clears the
    violated bound is feasible; that prefix is found with one
    ``cumsum`` + ``searchsorted``.  Returns ``None`` when no movable
    prefix reaches feasibility (caller falls back to random moves).
    """
    view = hg.np
    areas = view.areas
    part = np.asarray(initial.assignment, dtype=np.int8)
    total = float(areas.sum())
    area0 = float(areas[part == 0].sum())
    lo = max(balance.lower, total - balance.upper)
    hi = min(balance.upper, total - balance.lower)
    if lo <= area0 <= hi:
        return initial
    heavy0 = area0 > hi
    movable = (part == 0) if heavy0 else (part == 1)
    if fixed is not None:
        movable &= ~np.asarray(fixed, dtype=bool)
    cand = np.flatnonzero(movable)
    if cand.size == 0:
        return None
    c0, c1 = view.counts2(part)
    gains = view.initial_gains2(
        part, c0, c1, view.pin_weights(config.max_net_size))
    cand = cand[np.lexsort((cand, -gains[cand]))]
    moved = np.cumsum(areas[cand])
    # Area that must leave the heavy side to clear its violated bound.
    need = (area0 - hi) if heavy0 else (lo - area0) if area0 < lo else 0.0
    k = int(np.searchsorted(moved, need, side="left")) + 1
    if k > cand.size:
        return None
    new_area0 = area0 - moved[k - 1] if heavy0 else area0 + moved[k - 1]
    if not lo <= new_area0 <= hi:
        return None
    assignment = part.copy()
    assignment[cand[:k]] ^= 1
    return Partition(assignment.tolist(), 2)


def _polish_walk(view, threshold, part: np.ndarray,
                 c0: np.ndarray, c1: np.ndarray, cut_internal: int,
                 area0: float, lo: float, hi: float,
                 locked: np.ndarray, gains: np.ndarray):
    """One sequential exact-gain walk over the boundary (per pass).

    Batched rounds stop at the first round whose summed stale gains
    evaporate under interaction; a sequential sweep in the style of
    Jet's afterburner (arXiv:2304.13194) recovers most of the gap to
    true FM: visit unlocked boundary modules in stale-gain order
    (``(-gain, id)``), recompute each candidate's gain *exactly* from
    the live counts, apply every feasible move — negative gains
    included, which is the hill-climb that lets the walk cross the
    valleys batched rounds cannot — and roll back to the best prefix
    at the end, exactly FM's pass discipline.  The walk runs over
    plain Python lists (converted once per pass, incidence lists cached
    on the view), so each visit is a handful of list indexings — the
    conversion, not the walk, is the overhead that bounds it.

    Returns ``(part, c0, c1, cut, area0, locked, moved)`` with the
    arrays rebuilt from the walked state; ``moved`` lists the modules
    of the kept prefix (callers patch gains for their net pins).
    """
    w_eff = view.effective_weights(threshold)
    cut_net = (c0 > 0) & (c1 > 0) & (w_eff > 0)
    boundary = np.zeros(view.num_modules, dtype=bool)
    boundary[view.pins_flat[cut_net[view.net_ids]]] = True
    cand = np.flatnonzero(boundary & ~locked)
    if cand.size == 0:
        return part, c0, c1, cut_internal, area0, locked, ()
    cand = cand[np.lexsort((cand, -gains[cand]))]

    xnets_l = view.xnets_list
    nets_l = view.nets_flat_list
    w_l = view.eff_weights_list(threshold)
    areas_l = view.areas.tolist()
    part_l = part.tolist()
    c0_l = c0.tolist()
    c1_l = c1.tolist()
    locked_l = locked.tolist()

    cur = cut_internal
    best = cut_internal
    best_len = 0
    best_a0 = area0
    a0 = area0
    centre = (lo + hi) / 2.0
    applied = []
    # Hill-climb stall cutoff: once this many moves pass without a new
    # best cut the tail is (empirically) dead weight — FM's
    # early-exit discipline, sized to the boundary so coarse levels
    # still explore deeply.
    stall_limit = 128 + len(cand) // 8
    for v in cand.tolist():
        if len(applied) - best_len > stall_limit:
            break
        side = part_l[v]
        av = areas_l[v]
        na0 = a0 - av if side == 0 else a0 + av
        if not lo <= na0 <= hi:
            continue
        g = 0
        start, stop = xnets_l[v], xnets_l[v + 1]
        if side == 0:
            for i in range(start, stop):
                e = nets_l[i]
                if c0_l[e] == 1:
                    g += w_l[e]
                elif c1_l[e] == 0:
                    g -= w_l[e]
        else:
            for i in range(start, stop):
                e = nets_l[i]
                if c1_l[e] == 1:
                    g += w_l[e]
                elif c0_l[e] == 0:
                    g -= w_l[e]
        # Plateau moves may explore, but not by drifting the balance
        # toward the window edge: finer levels have *tighter* windows
        # (the ±max(A(v*), r·A(V)) slack shrinks as modules split), and
        # a projected partition hugging this level's edge would get
        # destroyed by random rebalancing below.
        if g == 0 and abs(na0 - centre) > abs(a0 - centre):
            continue
        if side == 0:
            for i in range(start, stop):
                e = nets_l[i]
                c0_l[e] -= 1
                c1_l[e] += 1
        else:
            for i in range(start, stop):
                e = nets_l[i]
                c1_l[e] -= 1
                c0_l[e] += 1
        part_l[v] = 1 - side
        locked_l[v] = True
        a0 = na0
        cur -= g
        applied.append(v)
        if cur < best:
            best = cur
            best_len = len(applied)
            best_a0 = a0
    if not applied:
        return part, c0, c1, cut_internal, area0, locked, ()
    for v in reversed(applied[best_len:]):
        side = part_l[v]
        if side == 1:
            for i in range(xnets_l[v], xnets_l[v + 1]):
                e = nets_l[i]
                c1_l[e] -= 1
                c0_l[e] += 1
        else:
            for i in range(xnets_l[v], xnets_l[v + 1]):
                e = nets_l[i]
                c0_l[e] -= 1
                c1_l[e] += 1
        part_l[v] = 1 - side
        locked_l[v] = False
    return (np.asarray(part_l, dtype=np.int8),
            np.asarray(c0_l, dtype=np.int64),
            np.asarray(c1_l, dtype=np.int64),
            best, best_a0,
            np.asarray(locked_l, dtype=bool),
            applied[:best_len])


def _trim_balance(to1_csum: np.ndarray, to0_csum: np.ndarray,
                  k1: int, k0: int, area0: float,
                  lo: float, hi: float) -> Tuple[int, int]:
    """Largest balance-feasible prefix pair ``(k1, k0)``.

    ``to1_csum[i]`` is the area leaving side 0 when the first ``i``
    candidates of that direction move (``to0_csum`` symmetric); the
    post-batch side-0 area is ``area0 - to1_csum[k1] + to0_csum[k0]``
    and must land in ``[lo, hi]``.  Each violated bound shrinks the
    offending direction via ``searchsorted`` on its monotone cumsum;
    every step strictly decreases ``k1 + k0``, and ``(0, 0)`` restores
    the (feasible) current areas, so the loop terminates.
    """
    while True:
        a0 = area0 - to1_csum[k1] + to0_csum[k0]
        if a0 < lo and k1 > 0:
            want = np.searchsorted(
                to1_csum, area0 + to0_csum[k0] - lo, side="right") - 1
            k1 = min(int(want), k1 - 1)
            k1 = 0 if k1 < 0 else k1
        elif a0 > hi and k0 > 0:
            want = np.searchsorted(
                to0_csum, hi - area0 + to1_csum[k1], side="right") - 1
            k0 = min(int(want), k0 - 1)
            k0 = 0 if k0 < 0 else k0
        else:
            return k1, k0


def batch_refine(hg: Hypergraph, initial: Partition, config: FMConfig,
                 balance: BalanceConstraint,
                 fixed: Optional[List[bool]], tr,
                 ) -> Tuple[List[int], int, int, int, List[int]]:
    """Run the batched pass loop; returns
    ``(assignment, internal_cut, passes, total_moves, pass_cuts)``.

    ``initial`` must already be balance-feasible (the caller
    rebalances, exactly as for the sequential engines).
    """
    trace_on = tr.enabled
    rec = recorder()
    rec_on = rec.enabled
    view = hg.np
    threshold = config.max_net_size
    w_eff = view.effective_weights(threshold)
    w_pin = view.pin_weights(threshold)
    sizes = view.net_sizes
    areas = view.areas

    part = np.asarray(initial.assignment, dtype=np.int8)
    c0, c1 = view.counts2(part)
    cut_internal = int(w_eff[(c0 > 0) & (c1 > 0)].sum())

    total_area = float(areas.sum())
    area0 = float(areas[part == 0].sum())
    # Side 0 must respect its own bounds and leave side 1 inside its
    # (identical) bounds: one window on area0 captures both.
    lo = max(balance.lower, total_area - balance.upper)
    hi = min(balance.upper, total_area - balance.lower)

    if fixed is not None:
        locked_base = np.asarray(fixed, dtype=bool)
    else:
        locked_base = np.zeros(view.num_modules, dtype=bool)

    passes = 0
    total_moves = 0
    pass_cuts: List[int] = []
    max_passes = config.max_passes or 1000
    best_overall = cut_internal

    # One full gain sweep; every later mutation (batch commits, walk
    # moves) patches only the pins its nets touch, so the vector stays
    # exact across rounds *and* passes.
    gains = view.initial_gains2(part, c0, c1, w_pin)
    while passes < max_passes:
        passes += 1
        t_pass = tr.now() if trace_on else 0
        start_cut = cut_internal
        committed = 0
        rounds = 0
        locked = locked_base.copy()

        while True:
            rounds += 1
            cand = np.flatnonzero((gains > 0) & ~locked)
            if cand.size == 0:
                break
            cand = cand[np.lexsort((cand, -gains[cand]))]
            going1 = part[cand] == 0
            to1 = cand[going1]
            to0 = cand[~going1]
            to1_csum = np.concatenate(
                ([0.0], np.cumsum(areas[to1])))
            to0_csum = np.concatenate(
                ([0.0], np.cumsum(areas[to0])))

            k1, k0 = to1.size, to0.size
            improved = False
            while k1 + k0 > 0:
                k1, k0 = _trim_balance(to1_csum, to0_csum, k1, k0,
                                       area0, lo, hi)
                if k1 + k0 == 0:
                    break
                batch = np.concatenate((to1[:k1], to0[:k0]))
                nets, lens = view.incident_nets(batch.astype(np.int64))
                delta = np.where(part[batch] == 0, 1, -1)
                c1_new = c1.copy()
                np.add.at(c1_new, nets, np.repeat(delta, lens))
                c0_new = sizes - c1_new
                new_cut = int(
                    w_eff[(c0_new > 0) & (c1_new > 0)].sum())
                if new_cut < cut_internal:
                    part[batch] ^= 1
                    locked[batch] = True
                    c0, c1 = c0_new, c1_new
                    cut_internal = new_cut
                    area0 = area0 - to1_csum[k1] + to0_csum[k0]
                    committed += int(batch.size)
                    improved = True
                    if rec_on:
                        rec.emit({"t": "batch", "r": rounds,
                                  "mods": batch.tolist(),
                                  "c": cut_internal, "a0": float(area0)})
                    break
                # The batch's interactions ate its summed gain: drop
                # the lower-gain half of the larger direction.  A lone
                # survivor always improves (its gain is exact), so the
                # halving bottoms out in a commit or an empty batch.
                if k1 >= k0:
                    k1 //= 2
                else:
                    k0 //= 2
            if not improved:
                break
            # Refresh only the gains a commit could have changed: the
            # pins of the nets the batch touched.  Early rounds touch
            # most of the netlist (full sweep is cheaper); later rounds
            # shrink to the boundary.
            touched = np.unique(nets)
            aff = np.unique(view.net_pins_of(touched)[0])
            if aff.size * 3 > view.num_modules:
                gains = view.initial_gains2(part, c0, c1, w_pin)
            else:
                gains = gains.copy()
                gains[aff] = view.gains_for(
                    aff.astype(np.int64), part, c0, c1, w_eff)

        # Sequential exact-gain polish over the boundary (see
        # _polish_walk), run only when the batched rounds are stuck:
        # that is precisely when the remaining gains are negative or
        # interaction-cancelled and only a hill-climb can progress.
        # While batches still commit, the walk would re-derive what the
        # next round finds anyway — at list-conversion prices.
        if committed == 0:
            part, c0, c1, cut_internal, area0, locked, moved = \
                _polish_walk(view, threshold, part, c0, c1, cut_internal,
                             area0, lo, hi, locked, gains)
            if moved:
                committed += len(moved)
                if rec_on:
                    rec.emit({"t": "polish", "mods": list(moved),
                              "c": cut_internal, "a0": float(area0)})
                mv = np.asarray(moved, dtype=np.int64)
                aff = np.unique(
                    view.net_pins_of(np.unique(view.incident_nets(mv)[0]))[0])
                if aff.size * 3 > view.num_modules:
                    gains = view.initial_gains2(part, c0, c1, w_pin)
                else:
                    gains = gains.copy()
                    gains[aff] = view.gains_for(
                        aff.astype(np.int64), part, c0, c1, w_eff)

        pass_cuts.append(cut_internal)
        total_moves += committed
        if rec_on:
            rec.emit({"t": "pass", "p": passes, "k": committed,
                      "mv": committed, "c": cut_internal, "np": 1})
        if trace_on:
            tr.complete("fm.pass", t_pass, {
                "pass": passes,
                "moves_attempted": committed,
                "moves_committed": committed,
                "rollback_depth": 0,
                "bucket_inserts": 0,
                "bucket_ops": rounds,
                "cut_before": start_cut,
                "cut_after": cut_internal,
                "gain": start_cut - cut_internal,
            })
        if cut_internal >= best_overall:
            break
        best_overall = cut_internal

    return (part.tolist(), cut_internal, passes, total_moves, pass_cuts)


def batch_bipartition(hg: Hypergraph,
                      initial: Optional[Partition] = None,
                      config: Optional[FMConfig] = None,
                      balance: Optional[BalanceConstraint] = None,
                      seed: SeedLike = None,
                      rng: Optional[random.Random] = None,
                      fixed: Optional[List[bool]] = None) -> FMResult:
    """Refine (or create) a bipartitioning of ``hg`` with the batch
    engine; same signature and result shape as
    :func:`~repro.fm.engine.fm_bipartition`, which it delegates to
    below :data:`NP_ENGINE_MIN_MODULES` modules or with lookahead."""
    config = config or FMConfig()
    if config.lookahead > 1 or hg.num_modules < NP_ENGINE_MIN_MODULES:
        return fm_bipartition(hg, initial, config, balance, seed=seed,
                              rng=rng, fixed=fixed)
    rng = rng if rng is not None else make_rng(seed)
    tr = tracer()
    mx = metrics()
    rec = recorder()
    t_run = tr.begin() if tr.enabled else 0
    wall0 = time.perf_counter() if mx.enabled else 0.0

    def repair(start: Partition, window: BalanceConstraint):
        repaired = repair_balance(hg, start, config, window, fixed)
        if repaired is not None and rec.enabled:
            rec.emit({"t": "repair", "n": sum(
                1 for a, b in zip(start.assignment, repaired.assignment)
                if a != b)})
        return repaired

    balance, initial = prepare_start(hg, initial, config, balance, rng,
                                     fixed, repair)

    # Cuts are measured on the full netlist (large nets re-included),
    # vectorized like everything else this engine does.
    view = hg.np
    initial_cut = view.cut2(np.asarray(initial.assignment, dtype=np.int8))
    if rec.enabled:
        rec.emit({"t": "fm", "l": rec.level, "n": hg.num_modules,
                  "mns": config.max_net_size, "np": 1,
                  "clip": int(config.clip),
                  "init": "".join(map(str, initial.assignment))})
    assignment, internal_cut, passes, total_moves, pass_cuts = \
        batch_refine(hg, initial, config, balance, fixed, tr)
    final_cut = view.cut2(np.asarray(assignment, dtype=np.int8))
    report_run("batch", hg, config, tr, t_run, mx, wall0, passes,
               total_moves, initial_cut, final_cut)
    return FMResult(partition=Partition(assignment, 2),
                    cut=final_cut,
                    internal_cut=internal_cut,
                    initial_cut=initial_cut,
                    passes=passes,
                    total_moves=total_moves,
                    pass_cuts=pass_cuts)
