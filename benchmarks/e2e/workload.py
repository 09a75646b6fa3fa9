"""One workload of the end-to-end benchmark, run in a fresh process.

    python3 workload.py NAME --seed S --seconds N --trace 0|1 --scratch DIR
                        [--smoke]

``run.py`` starts this once per workload; README.md says what each
workload exercises and why.  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs an
untraced phase and a traced phase over the same inputs and carries the
per-layer metrics.  The last stdout line is the result object.  When
an answer fails the oracle the process exits 1 without printing it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from layers import CLI_TARGETS, LayerTracer, layer_metrics
from loadgen import (BenchError, Connection, Daemon, python_env,
                     spawn_until, vm_hwm_mb)
from stats import (PROBE_REF_MS, InlineProbe, bucket_delta,
                   histogram_buckets, histogram_quantile, parse_prometheus,
                   percentile, speed_probe_ms, speed_scale, tail, value)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Batch workloads: stand-in circuit, scale and ``repro partition``
#: flags, full size and ``--smoke`` size.
BATCH = {
    "ml-large": (("golem3", 0.1, ["--algorithm", "mlc"]),
                 ("golem3", 0.01, ["--algorithm", "mlc"])),
    "multistart-small": (
        ("primary1", 0.3, ["--algorithm", "mlc", "--runs", "100",
                           "--jobs", "2"]),
        ("primary1", 0.3, ["--algorithm", "mlc", "--runs", "10",
                           "--jobs", "2"])),
}
#: Partition seeds a batch run cycles through.  Averaging over several
#: keeps a run's medians from hanging on one seed's work, and cycling
#: repeats seeds so repeated invocations can be compared.
BATCH_SEEDS = 8
#: The cut metrics cover this many leading invocations, or items of
#: the seeded request sequence, so two runs of one seed report the same
#: cuts however many operations each fits into its measured seconds.
#: An untraced run measures past its seconds until it has served them;
#: the service counts also keep ten samples beyond the 99th percentile.
CUT_INVOCATIONS = 4
CUT_ITEMS = {"service-cold": 1000, "service-mix": 1500}
#: Launches timed for ``setup_s``, spread over the measured seconds.
SETUP_REPS = 8

#: Every served netlist is a fresh primary1 stand-in of this scale.
SERVED_CIRCUIT = ("primary1", 0.2)
SERVED_RUNS = 2
COLD_WARMUP = 10
#: service-mix draws its items in blocks of 100 with exactly these
#: counts, shuffled, so that every run has the same mix.  A pair is two
#: consecutive items with one fresh key.
MIX_BLOCK = (("hot", 82), ("new", 6), ("pair", 3), ("cold", 6),
             ("sweep", 3))
MIX_CONNECTIONS = 2
#: service-mix items drawn before each slice: more than a slice serves.
MIX_READY = 400
#: Service load runs in slices this long, with a speed probe between.
SLICE_S = 1.0
#: service-cold also probes the speed after every this many requests.
PROBE_EVERY = 10
SWEEP_SIZE = 8
SWEEP_POLL_S = 0.005
#: Served answers recomputed in-process for the oracle.
ORACLE_SAMPLES = 5

#: Payload fields that legitimately differ between two answers to one
#: request key (the annotations of how it was served).
SERVED_VIA = {"cached", "coalesced", "request_id", "trace_id", "assignment"}
#: Fields of an execution's answer that any re-execution must repeat.
ANSWER = ("request_key", "fingerprint", "cuts", "min_cut", "median_cut",
          "statuses", "part_areas", "balanced")

Metrics = Dict[str, Optional[float]]


class OracleError(Exception):
    """An answer the program printed or served is wrong."""


class Run:
    """Arguments, scratch space and oracle bookkeeping of one run."""

    def __init__(self, args: argparse.Namespace):
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.scratch = Path(args.scratch)
        self.ledger = str(self.scratch / "ledger.jsonl")
        self.log = str(self.scratch / "stderr.log")
        self.env = python_env(str(ROOT), str(self.scratch), self.ledger)
        self.setup_reps = 1 if self.smoke else SETUP_REPS
        self.checks = 0

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}")

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise OracleError(what)
        self.checks += 1

    @property
    def min_items(self) -> int:
        """Items an untraced service run serves at the least (smoke runs
        skip this)."""
        return 0 if self.trace or self.smoke else CUT_ITEMS[self.name]

    def ledger_size(self) -> int:
        try:
            return os.path.getsize(self.ledger)
        except FileNotFoundError:
            return 0


def cut_of(nets: List[Tuple[int, ...]], weights: List[int],
           assignment: Sequence[int]) -> int:
    """Weight of the nets whose pins are not all on one side."""
    total = 0
    for pins, weight in zip(nets, weights):
        side = assignment[pins[0]]
        if any(assignment[v] != side for v in pins):
            total += weight
    return total


def net_lists(hg) -> Tuple[List[Tuple[int, ...]], List[int]]:
    return [tuple(hg.pins(e)) for e in hg.all_nets()], hg.net_weights()


def read_nets(path: str) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Nets (0-based pins) and net weights of an hMETIS file, read
    without the program's own parser."""
    with open(path, encoding="ascii") as handle:
        lines = [line.split() for line in handle
                 if line.strip() and not line.startswith("%")]
    num_nets = int(lines[0][0])
    weighted = len(lines[0]) > 2 and lines[0][2] in ("1", "11")
    nets, weights = [], []
    for tokens in lines[1:1 + num_nets]:
        values = [int(t) for t in tokens]
        weights.append(values.pop(0) if weighted else 1)
        nets.append(tuple(v - 1 for v in values))
    return nets, weights


class SetupSampler:
    """Times ``start()``, one launch of the program until it can take
    input, ``run.setup_reps`` times, spread evenly over the measured
    seconds.  The host slows down in phases of a few seconds, and
    launches made one after another can all land in the same one."""

    def __init__(self, run: Run, start: Callable[[], float],
                 seconds: float):
        self._start = start
        self._reps = run.setup_reps
        self._every = seconds / self._reps
        self.samples: List[float] = []

    def due(self, measured: float) -> bool:
        """Launch once if ``measured`` seconds have reached the next
        mark; tell whether it did."""
        if (len(self.samples) >= self._reps
                or measured < len(self.samples) * self._every):
            return False
        self._launch()
        return True

    def median(self) -> float:
        """The median launch, after making the launches the run did not
        reach."""
        while len(self.samples) < self._reps:
            self._launch()
        return median(self.samples)

    def _launch(self) -> None:
        before = speed_probe_ms()
        elapsed = self._start()
        self.samples.append(elapsed * speed_scale([before, speed_probe_ms()]))


# -- batch workloads: repro partition, in-process ------------------------

@dataclass
class Invocation:
    seed: int
    wall_s: float
    ok: bool
    printed_min_cut: Optional[int]
    #: Inline speed probe readings taken during the invocation.
    probes: List[float]
    #: The answer, kept small so that the bench adds little to the
    #: process's peak RSS.
    cuts: List[int] = field(default_factory=list)
    fingerprint: str = ""
    best_cut: int = 0
    best_assignment: bytes = b""
    #: The portfolio's own wall time (``execute``), in seconds.
    exec_s: float = 0.0
    #: Maps this invocation's times onto the reference machine.
    scale: float = 1.0


_MIN_CUT = re.compile(r"^min cut:\s+(\d+)", re.MULTILINE)


def import_repro(run: Run) -> float:
    """Seconds from spawning an interpreter until ``repro.cli`` has been
    imported and the process can take a command."""
    proc, _, elapsed = spawn_until(
        [sys.executable, "-c", "import repro.cli; print('ready')"],
        "ready", run.env, run.log)
    code = proc.wait()
    proc.stdout.close()
    if code != 0:
        raise BenchError(f"importing repro.cli exited {code}")
    return elapsed


def timed_invocations(invoke: Callable[[int], Invocation], seeds: List[int],
                      seconds: float, count: Optional[int] = None,
                      setup: Optional[SetupSampler] = None
                      ) -> List[Invocation]:
    """Invoke the CLI on ``seeds`` in turn until the invocations have
    taken ``seconds`` (or ``count`` times), with a speed probe and any
    due set-up launch between invocations."""
    reps: List[Invocation] = []
    probe = speed_probe_ms()
    measured = 0.0
    while (len(reps) < count if count is not None
           else len(reps) < CUT_INVOCATIONS or measured < seconds):
        if setup is not None and setup.due(measured):
            probe = speed_probe_ms()
        rep = invoke(seeds[len(reps) % len(seeds)])
        after = speed_probe_ms()
        rep.scale = speed_scale([probe, after, *rep.probes])
        probe = after
        measured += rep.wall_s
        reps.append(rep)
    return reps


def at_reference_speed(metrics: Metrics, scale: float) -> None:
    """Scale per-layer times like the end-to-end ones."""
    for name, number in metrics.items():
        if number is None:
            continue
        if name.endswith("_per_s"):
            metrics[name] = number / scale
        elif name.endswith(("_s", "_ms")):
            metrics[name] = number * scale


def batch(run: Run) -> Tuple[Metrics, int, int]:
    circuit, size, flags = BATCH[run.name][1 if run.smoke else 0]
    # The bench neither builds nor holds the netlist itself before the
    # peak RSS is read: a separate process writes the file.
    path = str(run.scratch / f"{circuit}.hgr")
    generate = subprocess.run(
        [sys.executable, "-m", "repro", "generate", circuit, "--scale",
         str(size), "--seed", "0", "-o", path],
        env=run.env, capture_output=True, text=True)
    if generate.returncode != 0:
        raise BenchError(f"repro generate exited {generate.returncode}: "
                         f"{generate.stderr[-2000:]}")
    # A probe inside the invocation needs the program to itself to run
    # on this thread alone; a pool's workers would slow the probe down.
    inline = "--jobs" not in flags

    import repro.cli as cli
    captured: List[object] = []
    execute = cli.execute

    def capture(*args, **kwargs):
        captured.append(execute(*args, **kwargs))
        return captured[-1]
    cli.execute = capture

    def invoke(seed: int) -> Invocation:
        captured.clear()
        out = io.StringIO()
        probe = InlineProbe()
        began = time.perf_counter()
        with probe if inline else contextlib.nullcontext(), \
                contextlib.redirect_stdout(out):
            code = cli.main(["partition", path, *flags, "--seed", str(seed)])
        wall = time.perf_counter() - began
        printed = _MIN_CUT.search(out.getvalue())
        outcome = captured.pop() if captured else None
        inv = Invocation(seed, wall, code == 0 and outcome is not None
                         and not outcome.failures,
                         int(printed.group(1)) if printed else None,
                         probe.readings)
        if inv.ok:
            best = outcome.best
            inv.cuts = list(outcome.cuts)
            inv.fingerprint = outcome.fingerprint_digest()
            inv.best_cut = best.cut
            inv.best_assignment = bytes(
                int(p) for p in best.result.partition.assignment)
            inv.exec_s = outcome.wall_seconds
        return inv

    rng = run.rng("seeds")
    seeds = [rng.randrange(2**31) for _ in range(BATCH_SEEDS)]
    warmup = invoke(seeds[0])
    seconds = run.seconds / 2 if run.trace else run.seconds
    setup = (None if run.trace else
             SetupSampler(run, lambda: import_repro(run), seconds))
    ledger0 = run.ledger_size()
    reps = timed_invocations(invoke, seeds, seconds, setup=setup)
    rss = vm_hwm_mb()
    ledger_bytes = run.ledger_size() - ledger0
    traced: List[Invocation] = []
    if run.trace:
        tracer = LayerTracer()
        tracer.install(CLI_TARGETS)
        ledger0 = run.ledger_size()
        traced = timed_invocations(invoke, [rep.seed for rep in reps],
                                   seconds, count=len(reps))
        ledger_bytes = run.ledger_size() - ledger0
    check_batch(run, [warmup] + reps + traced, *read_nets(path))

    measured = traced or reps
    attempted = len(measured)
    failed = sum(not inv.ok for inv in measured)
    if not run.trace:
        walls_ms = [inv.wall_s * inv.scale * 1000 for inv in reps]
        distinct = {inv.seed: inv.cuts
                    for inv in reps[:CUT_INVOCATIONS] if inv.ok}
        return {
            "setup_s": setup.median(),
            "latency_p50_ms": percentile(walls_ms, 50),
            "latency_p90_ms": tail(walls_ms, 90),
            "latency_p99_ms": tail(walls_ms, 99),
            "throughput_rps": len(reps) / sum(inv.wall_s * inv.scale
                                              for inv in reps),
            "cut_min": fmean([min(cuts) for cuts in distinct.values()]),
            "cut_mean": fmean([c for cuts in distinct.values()
                               for c in cuts]),
            "peak_rss_mb": rss,
        }, attempted, failed

    snapshot = tracer.snapshot()
    totals = snapshot["totals"]
    scale = fmean([inv.scale for inv in traced])
    metrics = layer_metrics(snapshot, len(traced))
    exec_ms = [inv.exec_s * 1000 for inv in traced if inv.ok]
    overhead_ms = [(inv.wall_s - inv.exec_s) * 1000
                   for inv in traced if inv.ok]
    waits_ms = [w * 1000 for w in snapshot["waits"]]
    executions = totals.get("exec_runs", 0.0)
    no_executor = "executor" in snapshot["missing"]
    # The CLI has no result cache, coalescer, lane or batcher: every
    # invocation executes one portfolio, and the only queue a start
    # waits in is the runtime's own.
    metrics.update({
        "service.exec_p50_ms": percentile(exec_ms, 50),
        "service.overhead_p50_ms": percentile(overhead_ms, 50),
        "service.overhead_p99_ms": tail(overhead_ms, 99),
        "service.queue_wait_p50_ms": (percentile(waits_ms, 50)
                                      if waits_ms else None),
        "service.queue_wait_p90_ms": (tail(waits_ms, 90)
                                      if waits_ms else None),
        "service.cache_hit_frac": (None if no_executor else
                                   (len(traced) - executions) / len(traced)),
        "service.coalesced_frac": 0.0,
        "service.batched_frac": 0.0,
        "service.requests_per_execution": (
            None if no_executor or not executions
            else len(traced) / executions),
        "service.executed_starts": (None if no_executor else
                                    totals.get("starts", 0.0) / len(traced)),
        "service.errors": float(failed),
        "service.shed": 0.0,
        "obs.ledger_bytes": ledger_bytes / len(traced),
        "bench.trace_overhead_frac": (
            sum(inv.wall_s * inv.scale for inv in traced)
            / sum(inv.wall_s * inv.scale for inv in reps) - 1),
    })
    at_reference_speed(metrics, scale)
    metrics["bench.speed_probe_ms"] = PROBE_REF_MS / scale
    return metrics, attempted, failed


def check_batch(run: Run, invocations: List[Invocation],
                nets: List[Tuple[int, ...]], weights: List[int]) -> None:
    """Every invocation of one seed gives one answer, the printed cut is
    the best start's, and that cut is the cut of the returned partition."""
    answers: Dict[int, tuple] = {}
    for inv in invocations:
        if not inv.ok:
            continue
        run.check(inv.printed_min_cut == min(inv.cuts),
                  f"seed {inv.seed}: printed min cut {inv.printed_min_cut} "
                  f"!= {min(inv.cuts)}")
        answer = (inv.cuts, inv.fingerprint)
        if inv.seed in answers:
            run.check(answers[inv.seed] == answer,
                      f"seed {inv.seed}: invocations disagree: "
                      f"{answers[inv.seed]} vs {answer}")
            continue
        answers[inv.seed] = answer
        recomputed = cut_of(nets, weights, inv.best_assignment)
        run.check(recomputed == inv.best_cut,
                  f"seed {inv.seed}: reported cut {inv.best_cut}, "
                  f"recomputed {recomputed}")


# -- service workloads: repro serve over HTTP ----------------------------

def corpus() -> Iterator[int]:
    """Generator seeds of the served netlists, the same for every
    ``--seed``, which varies the partition seeds and the order.  The cut
    of a small netlist depends far more on the netlist than on the
    partition seed (variances 11 and 0.3 for the served stand-in), so a
    fixed corpus keeps the cut metrics steady across seeds, as the fixed
    batch circuits do.  Each session starts the stream afresh, so its
    netlists are new to its daemon."""
    rng = random.Random("served-netlists")
    while True:
        yield rng.randrange(2**31)


class Netlists:
    """Fresh stand-in netlists by generator seed, as request bodies."""

    def __init__(self) -> None:
        from repro.hypergraph import load_circuit
        self._load = load_circuit
        self._inline: Dict[int, str] = {}

    def hg(self, gseed: int):
        name, scale = SERVED_CIRCUIT
        return self._load(name, scale=scale, seed=gseed)

    def inline(self, gseed: int, keep: bool = False) -> str:
        text = self._inline.get(gseed)
        if text is None:
            hg = self.hg(gseed)
            text = json.dumps({"name": hg.name,
                               "num_modules": hg.num_modules,
                               "nets": [list(hg.pins(e))
                                        for e in hg.all_nets()],
                               "areas": hg.areas(),
                               "net_weights": hg.net_weights()})
            if keep:
                self._inline[gseed] = text
        return text

    def request(self, gseed: int, seed: int, keep: bool = False,
                include_assignment: bool = False) -> str:
        extra = ', "include_assignment": true' if include_assignment else ""
        return (f'{{"netlist": {{"inline": {self.inline(gseed, keep)}}}, '
                f'"algorithm": "mlc", "runs": {SERVED_RUNS}, '
                f'"seed": {seed}{extra}}}')

    def body(self, gseed: int, seed: int, keep: bool = False) -> bytes:
        return self.request(gseed, seed, keep).encode()

    def sweep(self, gseed: int, seeds: List[int]) -> bytes:
        members = ", ".join(self.request(gseed, s, keep=True) for s in seeds)
        return f'{{"requests": [{members}]}}'.encode()


@dataclass
class Item:
    kind: str  # hot, new, pair, cold, sweep
    body: bytes
    #: (netlist generator seed, request seed) per result the item yields.
    specs: List[Tuple[int, int]]


@dataclass
class Served:
    kind: str
    latency_s: float
    specs: List[Tuple[int, int]]
    #: One payload per result; ``None`` where it failed.
    payloads: List[Optional[dict]]
    done_at: float
    #: Position of the item in the seeded sequence.
    index: int = 0
    #: Maps this item's times onto the reference machine.
    scale: float = 1.0


@dataclass
class Session:
    """One daemon's timed phase."""
    served: List[Served]
    #: Measured seconds, scaled to the reference machine.
    window_s: float
    #: Results per scaled second, one entry per slice.
    rates: List[float]
    before: dict
    after: dict

    @property
    def results(self) -> List[Tuple[Tuple[int, int], dict]]:
        return [(spec, payload) for s in self.served
                for spec, payload in zip(s.specs, s.payloads)
                if payload is not None]


def serve_item(conn: Connection, item: Item) -> Served:
    if item.kind != "sweep":
        status, data, latency = conn.call("POST", "/partition", item.body)
        payload = json.loads(data) if status == 200 else None
        return Served(item.kind, latency, item.specs, [payload],
                      time.perf_counter())
    began = time.perf_counter()
    payloads: List[Optional[dict]] = [None] * len(item.specs)
    status, data, _ = conn.call("POST", "/sweep", item.body)
    if status == 202:
        job_id = json.loads(data)["job_id"]
        while True:
            time.sleep(SWEEP_POLL_S)
            status, data, _ = conn.call("GET", f"/jobs/{job_id}")
            job = json.loads(data)
            if status != 200 or job.get("state") in ("done", "failed",
                                                     "cancelled"):
                break
        if status == 200 and job.get("state") == "done":
            payloads = [p if "error" not in p else None
                        for p in job["result"]["results"]]
    done = time.perf_counter()
    return Served(item.kind, done - began, item.specs, payloads, done)


def scrape(conn: Connection) -> dict:
    status, data, _ = conn.call("GET", "/metrics")
    if status != 200:
        raise BenchError(f"GET /metrics answered {status}")
    return parse_prometheus(data.decode())


Drive = Callable[[float, Optional[int], List[float]],
                 Tuple[List[Served], float]]


def in_slices(drive: Drive, seconds: Optional[float], limit: Optional[int],
              at_least: int, setup: Optional[SetupSampler]
              ) -> Tuple[List[Served], float, List[float]]:
    """Call ``drive(slice seconds, items still allowed, probes)`` until
    ``seconds`` have been measured and ``at_least`` items served, or
    until ``limit`` items have been served.

    Between slices no request is in flight, so the speed probe and any
    due set-up launch run without competing with the daemon; ``drive``
    may add probes of its own to the list.  Each item is scaled by the
    probes of its slice.  Returns the items, the scaled sum of the
    measured time, and the scaled rate of results of each slice."""
    served: List[Served] = []
    rates: List[float] = []
    measured = window = 0.0
    probe = speed_probe_ms()
    while True:
        if setup is not None and setup.due(measured):
            probe = speed_probe_ms()
        probes = [probe]
        items, elapsed = drive(SLICE_S, None if limit is None
                               else limit - len(served), probes)
        probe = speed_probe_ms()
        probes.append(probe)
        scale = speed_scale(probes)
        for item in items:
            item.scale = scale
        served += items
        measured += elapsed
        window += elapsed * scale
        if elapsed > 0:
            results = sum(p is not None for s in items for p in s.payloads)
            rates.append(results / (elapsed * scale))
        if (len(served) >= limit if limit is not None
                else measured >= seconds and len(served) >= at_least):
            return served, window, rates


def cold_session(run: Run, daemon: Daemon, netlists: Netlists,
                 seconds: Optional[float] = None,
                 limit: Optional[int] = None,
                 setup: Optional[SetupSampler] = None) -> Session:
    """One closed-loop connection; every request a never-seen netlist.

    Building the next body is client work, so it is kept out of the
    measured time."""
    rng = run.rng("cold")
    fresh = corpus()
    conn = Connection(daemon.port)
    order = itertools.count()

    def drive(slice_s: float, remaining: Optional[int],
              probes: List[float]) -> Tuple[List[Served], float]:
        items: List[Served] = []
        client_s = 0.0
        began = time.perf_counter()
        while (time.perf_counter() - began - client_s < slice_s
               and (remaining is None or len(items) < remaining)):
            t = time.perf_counter()
            if items and len(items) % PROBE_EVERY == 0:
                probes.append(speed_probe_ms(repeats=1))
            spec = (next(fresh), rng.randrange(2**31))
            item = Item("cold", netlists.body(*spec), [spec])
            client_s += time.perf_counter() - t
            items.append(serve_item(conn, item))
            items[-1].index = next(order)
        return items, time.perf_counter() - began - client_s

    try:
        for _ in range(3 if run.smoke else COLD_WARMUP):
            body = netlists.body(next(fresh), rng.randrange(2**31))
            if conn.call("POST", "/partition", body)[0] != 200:
                raise BenchError("warm-up request failed")
        before = scrape(conn)
        served, window, rates = in_slices(drive, seconds, limit,
                                          run.min_items, setup)
        after = scrape(conn)
    finally:
        conn.close()
    return Session(served, window, rates, before, after)


class MixSequence:
    """The seeded item stream both connections draw from, in order.

    The stream is a function of the seed alone; which connection takes
    an item, and where a slice cuts the stream, depend on timing.
    Items are drawn between slices (``prepare``): building a fresh
    netlist's body takes ~2 ms, and on a client thread it would hold up
    the other connection's reads and add to its latencies."""

    def __init__(self, rng: random.Random, netlists: Netlists,
                 fresh: Iterator[int], warm: List[int], hot: List[Item]):
        self._rng = rng
        self._netlists = netlists
        self._fresh = fresh
        self._warm = warm
        self._hot = hot
        self._ready: Deque[Item] = deque()
        self._deck: List[str] = []
        self._lock = threading.Lock()
        self.stop_at = math.inf
        self.limit: Optional[int] = None
        self.taken = 0

    def prepare(self, count: int) -> None:
        """Draw items until ``count`` are ready."""
        while len(self._ready) < count:
            self._ready.extend(self._draw())

    def take(self) -> Optional[Tuple[int, Item]]:
        """The next item and its position, or ``None`` at the end of the
        slice."""
        with self._lock:
            if self.limit is not None and self.taken >= self.limit:
                return None
            if time.perf_counter() >= self.stop_at:
                return None
            self.prepare(1)
            self.taken += 1
            return self.taken - 1, self._ready.popleft()

    def _draw(self) -> List[Item]:
        rng, netlists = self._rng, self._netlists
        if not self._deck:
            self._deck = [kind for kind, count in MIX_BLOCK
                          for _ in range(count)]
            rng.shuffle(self._deck)
        kind = self._deck.pop()
        if kind == "hot":
            return [rng.choice(self._hot)]
        if kind == "sweep":
            gseed = rng.choice(self._warm)
            seeds = [rng.randrange(2**31) for _ in range(SWEEP_SIZE)]
            return [Item(kind, netlists.sweep(gseed, seeds),
                         [(gseed, s) for s in seeds])]
        gseed = (next(self._fresh) if kind == "cold"
                 else rng.choice(self._warm))
        spec = (gseed, rng.randrange(2**31))
        item = Item(kind, netlists.body(*spec, keep=kind != "cold"), [spec])
        return [item, item] if kind == "pair" else [item]


def mix_session(run: Run, daemon: Daemon, netlists: Netlists,
                seconds: Optional[float] = None,
                limit: Optional[int] = None,
                setup: Optional[SetupSampler] = None) -> Session:
    """Two closed-loop connections sharing one seeded item stream: hot
    keys warmed before timing, new seeds on warm netlists, identical
    pairs, fresh netlists and sweeps."""
    rng = run.rng("mix")
    fresh = corpus()
    warm = [next(fresh) for _ in range(4)]
    hot = [Item("hot", netlists.body(g, s, keep=True), [(g, s)])
           for g in warm for s in (rng.randrange(2**31), rng.randrange(2**31))]
    sequence = MixSequence(rng, netlists, fresh, warm, hot)
    clients = [Connection(daemon.port) for _ in range(MIX_CONNECTIONS)]

    def pump(client: Connection, items: List[Served],
             errors: List[BaseException]) -> None:
        try:
            while True:
                taken = sequence.take()
                if taken is None:
                    return
                served = serve_item(client, taken[1])
                served.index = taken[0]
                items.append(served)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    def drive(slice_s: float, remaining: Optional[int],
              probes: List[float]) -> Tuple[List[Served], float]:
        sequence.prepare(MIX_READY)
        began = time.perf_counter()
        sequence.stop_at = began + slice_s
        sequence.limit = (None if remaining is None
                          else sequence.taken + remaining)
        items: List[Served] = []
        errors: List[BaseException] = []
        threads = [threading.Thread(target=pump, args=(c, items, errors))
                   for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return items, max((s.done_at for s in items), default=began) - began

    try:
        for item in hot:
            if clients[0].call("POST", "/partition", item.body)[0] != 200:
                raise BenchError("warm-up request failed")
        before = scrape(clients[0])
        served, window, rates = in_slices(drive, seconds, limit,
                                          run.min_items, setup)
        after = scrape(clients[0])
    finally:
        for client in clients:
            client.close()
    return Session(served, window, rates, before, after)


def check_service(run: Run, session: Session, daemon: Daemon,
                  netlists: Netlists,
                  reference: Dict[str, dict]) -> None:
    """Repeated keys get the same answer, cache hits equal their cold
    payload, and sampled answers match an in-process run of the CLI's
    path and the cut of the served assignment."""
    specs: Dict[str, Tuple[int, int]] = {}
    for spec, payload in session.results:
        key = payload["request_key"]
        specs.setdefault(key, spec)
        run.check(payload["min_cut"] == min(payload["cuts"]),
                  f"{key}: min_cut is not the least of its cuts")
        first = reference.setdefault(key, payload)
        check_same_answer(run, first, payload)

    from repro.runtime import Portfolio, execute
    from repro.solvers import build_algorithm
    conn = Connection(daemon.port)
    try:
        for key in run.rng("oracle").sample(sorted(specs),
                                            min(ORACLE_SAMPLES, len(specs))):
            gseed, seed = specs[key]
            hg = netlists.hg(gseed)
            outcome = execute(Portfolio(algorithm=build_algorithm("mlc"),
                                        hg=hg, runs=SERVED_RUNS, seed=seed,
                                        keep_results=True), jobs=1)
            served = reference[key]
            run.check(outcome.fingerprint_digest() == served["fingerprint"]
                      and outcome.cuts == served["cuts"],
                      f"{key}: served {served['cuts']} "
                      f"({served['fingerprint']}), in-process "
                      f"{outcome.cuts} ({outcome.fingerprint_digest()})")
            body = netlists.request(gseed, seed, include_assignment=True)
            status, again, _ = conn.json("POST", "/partition", body.encode())
            run.check(status == 200, f"{key}: re-request answered {status}")
            check_same_answer(run, served, again)
            nets, weights = net_lists(hg)
            recomputed = cut_of(nets, weights, again["assignment"])
            run.check(recomputed == again["min_cut"],
                      f"{key}: served cut {again['min_cut']}, assignment "
                      f"cuts {recomputed}")
    finally:
        conn.close()


def check_same_answer(run: Run, first: dict, other: dict) -> None:
    if first.get("id") == other.get("id"):
        # The same execution, served again from the cache or to a
        # coalesced follower: identical apart from how it was served.
        a = {k: v for k, v in first.items() if k not in SERVED_VIA}
        b = {k: v for k, v in other.items() if k not in SERVED_VIA}
    else:
        a = {k: first.get(k) for k in ANSWER}
        b = {k: other.get(k) for k in ANSWER}
    run.check(a == b, f"{first.get('request_key')}: answers differ: "
                      f"{a} vs {b}")


def daemon_argv(jobs: int, layers_out: Optional[str]) -> List[str]:
    flags = ["--port", "0"] + (["--jobs", str(jobs)] if jobs != 1 else [])
    if layers_out is None:
        return [sys.executable, "-m", "repro", "serve", *flags]
    return [sys.executable, str(HERE / "serve_traced.py"), layers_out, *flags]


def service(run: Run) -> Tuple[Metrics, int, int]:
    jobs = 2 if run.name == "service-mix" else 1
    session_of: Callable[..., Session] = (
        mix_session if run.name == "service-mix" else cold_session)
    netlists = Netlists()
    reference: Dict[str, dict] = {}

    def session(layers_out: Optional[str] = None,
                **limits) -> Tuple[Session, float, int]:
        daemon = Daemon(daemon_argv(jobs, layers_out), run.env, run.log)
        try:
            ledger0 = run.ledger_size()
            result = session_of(run, daemon, netlists, **limits)
            rss = daemon.peak_rss_mb()
            ledger_bytes = run.ledger_size() - ledger0
            check_service(run, result, daemon, netlists, reference)
        except BaseException:
            daemon.kill()
            raise
        daemon.stop()
        return result, rss, ledger_bytes

    def start_daemon() -> float:
        daemon = Daemon(daemon_argv(jobs, None), run.env, run.log)
        daemon.stop()
        return daemon.setup_s

    if not run.trace:
        setup = SetupSampler(run, start_daemon, run.seconds)
        result, rss, _ = session(seconds=run.seconds, setup=setup)
        report_classes(result)
        return service_metrics(result, setup.median(), rss,
                               CUT_ITEMS[run.name])

    untraced, _, _ = session(seconds=run.seconds / 2)
    layers_out = str(run.scratch / "layers.json")
    traced, _, ledger_bytes = session(layers_out,
                                      limit=len(untraced.served))
    with open(layers_out, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    return service_layers(traced, untraced, snapshot, ledger_bytes)


def outcome_counts(session: Session) -> Tuple[int, int]:
    attempted = sum(len(s.payloads) for s in session.served)
    return attempted, attempted - len(session.results)


def service_metrics(session: Session, setup_s: float, rss: float,
                    cut_prefix: int) -> Tuple[Metrics, int, int]:
    latencies_ms = [s.latency_s * s.scale * 1000 for s in session.served
                    if None not in s.payloads]
    # Each netlist counts once, however many keys and repeats it got:
    # otherwise the few warm netlists of service-mix would set the cut.
    by_netlist: Dict[int, Dict[str, dict]] = {}
    for s in session.served:
        if s.index >= cut_prefix:
            continue
        for (gseed, _), payload in zip(s.specs, s.payloads):
            if payload is not None:
                by_netlist.setdefault(gseed, {})[payload["request_key"]] = \
                    payload
    attempted, failed = outcome_counts(session)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": tail(latencies_ms, 90),
        "latency_p99_ms": tail(latencies_ms, 99),
        "throughput_rps": median(session.rates),
        "cut_min": fmean([fmean([p["min_cut"] for p in keys.values()])
                          for keys in by_netlist.values()]),
        "cut_mean": fmean([fmean([c for p in keys.values()
                                  for c in p["cuts"]])
                           for keys in by_netlist.values()]),
        "peak_rss_mb": rss,
    }, attempted, failed


def report_classes(session: Session) -> None:
    """Latency by how each item was served: diagnostics, not metrics."""
    classes: Dict[str, List[float]] = {}
    for s in session.served:
        if None in s.payloads:
            continue
        if s.kind == "sweep":
            kind = "sweep"
        elif s.payloads[0].get("cached"):
            kind = "hit"
        elif s.payloads[0].get("coalesced"):
            kind = "coalesced"
        else:
            kind = "miss"
        classes.setdefault(kind, []).append(s.latency_s * s.scale * 1000)
    for kind, samples in sorted(classes.items()):
        print(f"# {kind:9s} n={len(samples):5d}  "
              f"p50={percentile(samples, 50):8.3f} ms  "
              f"p90={percentile(samples, 90):8.3f} ms  "
              f"p99={percentile(samples, 99):8.3f} ms")


def ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1000


def service_layers(traced: Session, untraced: Session,
                   snapshot: dict, ledger_bytes: int
                   ) -> Tuple[Metrics, int, int]:
    operations = len(traced.served)
    scale = fmean([s.scale for s in traced.served])
    metrics = layer_metrics(snapshot, operations)
    executed = [(s.latency_s, s.payloads[0]) for s in traced.served
                if s.kind != "sweep" and s.payloads[0] is not None
                and not s.payloads[0]["cached"]
                and not s.payloads[0]["coalesced"]]
    exec_ms = [p["wall_seconds"] * 1000 for _, p in executed]
    overhead_ms = [(latency - p["wall_seconds"]) * 1000
                   for latency, p in executed]

    def delta(name: str) -> float:
        return value(traced.after, name) - value(traced.before, name)

    waits = bucket_delta(
        histogram_buckets(traced.before, "repro_service_queue_wait_seconds"),
        histogram_buckets(traced.after, "repro_service_queue_wait_seconds"))
    requests = delta("repro_service_requests_total")
    executions = delta("repro_service_executed_portfolios_total")
    sweep_members = sum(len(s.specs) for s in traced.served
                        if s.kind == "sweep")
    print(f"# batched requests "
          f"{delta('repro_service_batched_requests_total'):.0f} of "
          f"{requests:.0f}; sweep members {sweep_members}")
    metrics.update({
        "service.exec_p50_ms": percentile(exec_ms, 50),
        "service.overhead_p50_ms": percentile(overhead_ms, 50),
        "service.overhead_p99_ms": tail(overhead_ms, 99),
        "service.queue_wait_p50_ms": ms(histogram_quantile(waits, 0.5)),
        "service.queue_wait_p90_ms": ms(histogram_quantile(waits, 0.9)),
        "service.cache_hit_frac": delta("repro_service_cache_hits_total")
        / requests,
        "service.coalesced_frac": delta("repro_service_coalesced_total")
        / requests,
        "service.batched_frac": delta("repro_service_batched_requests_total")
        / requests,
        "service.requests_per_execution": requests / executions,
        "service.executed_starts":
            delta("repro_service_executed_starts_total") / operations,
        "service.errors": delta("repro_service_errors_total"),
        "service.shed": delta("repro_service_lane_shed_total"),
        "obs.ledger_bytes": ledger_bytes / operations,
        "bench.trace_overhead_frac": traced.window_s / untraced.window_s - 1,
    })
    at_reference_speed(metrics, scale)
    metrics["bench.speed_probe_ms"] = PROBE_REF_MS / scale
    attempted, failed = outcome_counts(traced)
    return metrics, attempted, failed


# -- entry point ---------------------------------------------------------

def expected_units(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload",
                        choices=[*BATCH, "service-cold", "service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    run = Run(args)
    # In-process CLI runs and oracle recomputations share the run's
    # ledger and temporary directory with the processes it starts.
    os.environ.update(REPRO_LEDGER=run.ledger, TMPDIR=str(run.scratch))
    sys.path.insert(0, str(ROOT / "src"))
    units = expected_units(run.trace)
    try:
        measure = batch if run.name in BATCH else service
        metrics, attempted, failed = measure(run)
    except OracleError as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"benchmark error: computed {sorted(metrics)}, "
              f"BENCHMARK.json lists {sorted(units)}", file=sys.stderr)
        return 2
    for name in units:
        print(f"{name:34s} {metrics[name]!s:>24} {units[name]}")
    print(f"oracle: {run.checks} checks passed")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
