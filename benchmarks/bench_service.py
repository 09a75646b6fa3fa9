"""Service benchmark: cache-hit amortization and request coalescing.

Boots a real ``repro serve`` daemon (subprocess, port 0, ledger off)
and measures, over the wire:

* **cold miss** — first-ever request per (circuit, seed): pays netlist
  parse + a full portfolio execution;
* **cache hit** — the same requests repeated: served from the
  fingerprint-keyed result cache without touching the runtime.
  Cold and hit samples for the speedup contract are *interleaved*
  (``COLD_ROUNDS`` fresh-key executions spread through the hit
  stream), so minute-scale machine drift hits both populations alike;
* **coalescing** — a burst of identical concurrent requests on a fresh
  key: the executed-portfolio counter from ``/metrics`` shows the whole
  burst collapsed into one execution;
* **overload** — a second daemon with a shallow lane
  (``--max-queued 2``) under open-loop load arriving faster than it
  can serve: the shed fraction and the accepted requests' p50/p99;
* **lane** — a ``--jobs 1`` daemon (portfolios run serially on the
  lane thread) and a ``--jobs 2`` daemon (one worker pool kept across
  requests) serve the same never-seen inline netlists, alternating
  which lane goes first.  Each of ``COLD_ROUNDS`` rounds sends each
  lane one miss alone and one while a second connection keeps sending
  cache hits, so hit latency is measured against a busy lane: miss
  p50, miss-under-hits p50 and hit p99 per lane, with sample counts,
  and the ``obs/compare.py`` paired verdicts on both miss latencies
  (pair *i* is the same netlist on both lanes).

Asserted contracts (the service's acceptance criteria):

* hit p50 is at least ``MIN_SPEEDUP``× lower than cold p50;
* an N-wide identical burst executes exactly 1 portfolio;
* hit payloads are byte-identical to their cold counterparts
  (minus the ``cached`` annotation itself);
* the daemon's own ``repro_service_latency_seconds`` histogram tells
  the same story as a client-side stopwatch: scraped p50/p99 agree
  with the client-measured hit-path quantiles within 20%;
* under saturation the daemon sheds (some 429s) instead of queueing
  without bound, and accepted p99 stays ≤ 2× the request deadline;
* both lanes return identical fingerprints for every netlist.

The report is printed and written to ``BENCH_service.json`` at the
repo root.  Run directly (``python benchmarks/bench_service.py``) or
via pytest.  Knobs: ``REPRO_BENCH_SERVICE_SCALE`` (circuit scale,
default 0.2), ``REPRO_BENCH_SERVICE_HITS`` (hit repeats per key,
default 20), ``REPRO_BENCH_SERVICE_BURST`` (burst width, default 8),
``REPRO_BENCH_SERVICE_OVERLOAD_N`` (overload request count, default
24), ``REPRO_BENCH_SERVICE_QUANTILE_N`` (hit samples for the
histogram-agreement check, default 3000).
"""

import concurrent.futures
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.hypergraph import load_circuit  # noqa: E402
from repro.obs.compare import compare_samples  # noqa: E402
from repro.service import (ServiceClient, ServiceError,  # noqa: E402
                           inline_netlist)

SCALE = float(os.environ.get("REPRO_BENCH_SERVICE_SCALE", "0.2"))
HIT_REPEATS = int(os.environ.get("REPRO_BENCH_SERVICE_HITS", "20"))
BURST = int(os.environ.get("REPRO_BENCH_SERVICE_BURST", "8"))
CIRCUITS = ("primary1", "primary2", "bm1")
RUNS_PER_REQUEST = 2
MIN_SPEEDUP = 50.0
#: Hit samples driven into the latency histogram before comparing its
#: interpolated quantiles against the client's exact stopwatch ones.
#: Also sized so the handful of cold executions sharing the
#: ``endpoint="partition"`` series cannot reach the p99 rank.
QUANTILE_N = int(os.environ.get("REPRO_BENCH_SERVICE_QUANTILE_N", "3000"))
QUANTILE_TOLERANCE = 0.20
#: Fresh-key cold executions interleaved with the hit stream (below).
COLD_ROUNDS = 12
OUTPUT = _ROOT / "BENCH_service.json"

# -- overload scenario knobs ------------------------------------------
OVERLOAD_N = int(os.environ.get("REPRO_BENCH_SERVICE_OVERLOAD_N", "24"))
OVERLOAD_DEADLINE_MS = 10_000
OVERLOAD_MAX_QUEUED = 2
#: Open-loop arrival gap — far faster than the service rate for a
#: full-scale mlc portfolio, so the lane must shed.
OVERLOAD_ARRIVAL_S = 0.01

# -- lane scenario knobs ----------------------------------------------
#: Worker counts of the two daemons compared: the serial lane and the
#: persistent worker pool.
LANE_JOBS = (1, 2)
#: Netlist seeds of the lane scenario's fresh inline netlists (apart
#: from every other scenario's, so no daemon has seen them).
LANE_NETLIST_SEED = 2000


def _request_body(circuit: str, seed: int, netlist_seed: int = 1) -> dict:
    return {"netlist": {"generate": {"name": circuit, "scale": SCALE,
                                     "seed": netlist_seed}},
            "algorithm": "mlc", "runs": RUNS_PER_REQUEST, "seed": seed}


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _start_server(*extra_args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_ROOT / "src")
    env["REPRO_LEDGER"] = "off"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        text=True)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc, int(line.rstrip().rsplit(":", 1)[1])


def _timed(client: ServiceClient, body: dict):
    start = time.perf_counter()
    payload = client.partition(body)
    return time.perf_counter() - start, payload


def run_bench() -> dict:
    proc, port = _start_server()
    try:
        with ServiceClient("127.0.0.1", port, timeout=600) as client:
            report = _run_against(client, port)
    finally:
        report_exit = _stop_server(proc)
    report["meta"]["server_exit_code"] = report_exit

    # -- overload: its own daemon with a deliberately shallow lane ----
    proc, port = _start_server(
        "--max-queued", str(OVERLOAD_MAX_QUEUED),
        "--deadline-ms", str(OVERLOAD_DEADLINE_MS),
        "--breaker-failures", "1000")
    try:
        report["overload"] = _run_overload(port)
    finally:
        overload_exit = _stop_server(proc)
    report["overload"]["server_exit_code"] = overload_exit

    # -- lane: a serial daemon against a pooled one -------------------
    report["lane"] = _run_lanes()
    return report


def _stop_server(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return proc.returncode


def _inline_body(round_: int, netlist_seed: int) -> dict:
    """A request on a never-seen netlist, embedded inline."""
    hg = load_circuit(CIRCUITS[round_ % len(CIRCUITS)], scale=SCALE,
                      seed=netlist_seed)
    return {"netlist": {"inline": inline_netlist(hg)}, "algorithm": "mlc",
            "runs": RUNS_PER_REQUEST, "seed": round_}


def _busy_miss(port: int, body: dict, hit_client: ServiceClient,
               hot_body: dict):
    """Send ``body`` (a miss) on its own connection while
    ``hit_client`` keeps sending the cached ``hot_body``.  Returns the
    miss's latency and payload and every hit's latency."""
    def miss():
        with ServiceClient("127.0.0.1", port, timeout=600) as client:
            return _timed(client, body)

    hits = []
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        future = pool.submit(miss)
        while not future.done():
            hit_s, payload = _timed(hit_client, hot_body)
            assert payload["cached"]
            hits.append(hit_s)
    miss_s, payload = future.result()
    return miss_s, payload, hits


def _verdict(name: str, baseline, current) -> dict:
    v = compare_samples("lane", name, baseline, current)
    return {"baseline_median_s": round(v.baseline_median, 6),
            "current_median_s": round(v.current_median, 6),
            "delta_pct": (None if v.delta_pct is None
                          else round(v.delta_pct, 1)),
            "p_value": round(v.p_value, 4), "verdict": v.verdict}


def _run_lanes() -> dict:
    """The same never-seen inline netlists on a ``--jobs 1`` and a
    ``--jobs 2`` daemon.  Each round sends every lane one miss on its
    own (``miss``) and one while a second connection keeps sending
    cache hits (``busy_miss``, whose hits give ``hit_p99``)."""
    servers = {jobs: _start_server("--jobs", str(jobs))
               for jobs in LANE_JOBS}
    samples = {jobs: {"miss": [], "busy_miss": [], "hit": []}
               for jobs in LANE_JOBS}
    fingerprints = {jobs: [] for jobs in LANE_JOBS}
    hot_body = _request_body(CIRCUITS[0], seed=0)
    clients = {jobs: ServiceClient("127.0.0.1", port, timeout=600)
               for jobs, (_, port) in servers.items()}
    try:
        for client in clients.values():
            client.partition(hot_body)  # the key every hit asks for
        for r in range(COLD_ROUNDS):
            alone = _inline_body(r, LANE_NETLIST_SEED + r)
            busy = _inline_body(r, LANE_NETLIST_SEED + COLD_ROUNDS + r)
            for jobs in (LANE_JOBS if r % 2 == 0 else LANE_JOBS[::-1]):
                miss_s, first = _timed(clients[jobs], alone)
                busy_s, second, hits = _busy_miss(
                    servers[jobs][1], busy, clients[jobs], hot_body)
                assert not first["cached"] and not second["cached"]
                samples[jobs]["miss"].append(miss_s)
                samples[jobs]["busy_miss"].append(busy_s)
                samples[jobs]["hit"].extend(hits)
                fingerprints[jobs] += [first["fingerprint"],
                                       second["fingerprint"]]
    finally:
        for client in clients.values():
            client.close()
        exit_codes = {jobs: _stop_server(proc)
                      for jobs, (proc, _) in servers.items()}
    serial, pooled = LANE_JOBS
    return {
        "netlists": 2 * COLD_ROUNDS,
        "lanes": {f"jobs{jobs}": {
            "miss_samples": len(got["miss"]),
            "miss_p50_s": round(_percentile(got["miss"], 0.50), 6),
            "busy_miss_samples": len(got["busy_miss"]),
            "busy_miss_p50_s": round(_percentile(got["busy_miss"], 0.50),
                                     6),
            "hit_samples": len(got["hit"]),
            "hit_p99_s": round(_percentile(got["hit"], 0.99), 6),
            "server_exit_code": exit_codes[jobs],
        } for jobs, got in samples.items()},
        "identical_fingerprints":
            fingerprints[serial] == fingerprints[pooled],
        # Paired by netlist: round i's miss on both lanes.
        "verdicts": {"baseline": f"jobs{serial}",
                     "current": f"jobs{pooled}", **{
                         name: _verdict(name, samples[serial][name],
                                        samples[pooled][name])
                         for name in ("miss", "busy_miss")}},
    }


def _run_overload(port: int) -> dict:
    """Open-loop saturation: fire requests faster than the daemon can
    serve them and measure what it sheds vs. what it serves, and how
    long the accepted ones take."""

    def one(i: int):
        # Distinct (threshold, seed) per request defeats the result
        # cache, coalescing, and batching: every accepted request
        # costs a real portfolio execution.
        body = {"netlist": {"generate": {"name": "primary1",
                                         "scale": 1.0, "seed": 1}},
                "algorithm": "mlc", "runs": 4, "seed": i,
                "threshold": 20 + i}
        with ServiceClient("127.0.0.1", port, timeout=60,
                           retries=0) as client:
            start = time.perf_counter()
            try:
                payload = client.partition(body)
                return ("ok", time.perf_counter() - start,
                        bool(payload.get("degraded")))
            except ServiceError as exc:
                return (exc.status, time.perf_counter() - start, False)

    with concurrent.futures.ThreadPoolExecutor(OVERLOAD_N) as pool:
        futures = []
        wall_start = time.perf_counter()
        for i in range(OVERLOAD_N):
            futures.append(pool.submit(one, i))
            time.sleep(OVERLOAD_ARRIVAL_S)
        outcomes = [f.result() for f in futures]
        wall_s = time.perf_counter() - wall_start

    accepted = [o for o in outcomes if o[0] == "ok"]
    shed = [o for o in outcomes if o[0] == 429]
    other = [o for o in outcomes if o[0] not in ("ok", 429)]
    latencies = [o[1] for o in accepted] or [0.0]
    return {
        "requests": OVERLOAD_N,
        "arrival_gap_s": OVERLOAD_ARRIVAL_S,
        "max_queued": OVERLOAD_MAX_QUEUED,
        "deadline_ms": OVERLOAD_DEADLINE_MS,
        "accepted": len(accepted),
        "shed_429": len(shed),
        "other_errors": len(other),
        "shed_fraction": round(len(shed) / OVERLOAD_N, 3),
        "degraded_responses": sum(1 for o in accepted if o[2]),
        "accepted_p50_s": round(_percentile(latencies, 0.50), 6),
        "accepted_p99_s": round(_percentile(latencies, 0.99), 6),
        "wall_s": round(wall_s, 6),
    }


def _run_against(client: ServiceClient, port: int) -> dict:
    rows = []
    cold_samples = []
    hit_samples = []
    for circuit in CIRCUITS:
        body = _request_body(circuit, seed=0)
        cold_s, cold_payload = _timed(client, body)
        assert not cold_payload["cached"]
        cold_samples.append(cold_s)
        times = []
        for _ in range(HIT_REPEATS):
            hit_s, hit_payload = _timed(client, body)
            assert hit_payload["cached"]
            # A hit is the same result, not a lookalike: everything
            # but the per-request annotations (cache flags and the
            # correlation ids, which are new on every request) must
            # match the cold payload.
            volatile = ("cached", "coalesced", "request_id", "trace_id")
            stable = {k: v for k, v in hit_payload.items()
                      if k not in volatile}
            cold_stable = {k: v for k, v in cold_payload.items()
                           if k not in volatile}
            assert stable == cold_stable, f"cache served a different " \
                f"payload for {circuit}"
            times.append(hit_s)
        hit_samples.extend(times)
        rows.append({
            "circuit": circuit,
            "min_cut": cold_payload["min_cut"],
            "fingerprint": cold_payload["fingerprint"],
            "cold_s": round(cold_s, 6),
            "hit_p50_s": round(_percentile(times, 0.50), 6),
            "hit_p99_s": round(_percentile(times, 0.99), 6),
            "speedup_p50": round(cold_s / _percentile(times, 0.50), 1),
        })

    # -- interleaved cold/hit sampling --------------------------------
    # The speedup contract compares quantiles of two populations, so
    # both must be sampled across the *same* wall-clock span — the
    # bench_obs_overhead lesson: minute-scale machine drift otherwise
    # lands entirely on whichever side happens to run last, and a
    # 3-sample cold p50 taken in one instant is weather, not signal.
    # Each round runs one fresh-key cold execution and a block of
    # cache hits; the hit stream doubles as the ~QUANTILE_N-strong
    # population for the histogram-agreement check below.
    hit_bodies = [_request_body(c, seed=0) for c in CIRCUITS]
    per_round = max(1, (QUANTILE_N - len(hit_samples)) // COLD_ROUNDS)
    for r in range(COLD_ROUNDS):
        # A *true* cold each round: a never-seen generated netlist, so
        # the request pays generation + parse + execution — varying
        # only the partition seed would ride the daemon's netlist
        # cache and undercount the cold path.
        cold_body = _request_body(CIRCUITS[r % len(CIRCUITS)],
                                  seed=1000 + r, netlist_seed=1000 + r)
        cold_s, cold_payload = _timed(client, cold_body)
        assert not cold_payload["cached"]
        cold_samples.append(cold_s)
        for i in range(per_round):
            hit_s, hit_payload = _timed(
                client, hit_bodies[i % len(hit_bodies)])
            assert hit_payload["cached"]
            hit_samples.append(hit_s)

    # -- scraped histogram vs client stopwatch ------------------------
    # The daemon's admission-to-response histogram must tell the same
    # story as the client's stopwatch: compare the PromQL-style
    # interpolated scrape quantiles against the exact client-side
    # order statistics over every partition request timed above.
    stopwatch = hit_samples
    scrape_p50 = client.histogram_quantile(
        "repro_service_latency_seconds", 0.50, endpoint="partition")
    scrape_p99 = client.histogram_quantile(
        "repro_service_latency_seconds", 0.99, endpoint="partition")
    client_p50 = _percentile(stopwatch, 0.50)
    client_p99 = _percentile(stopwatch, 0.99)
    agreement = {
        "samples": len(stopwatch),
        "tolerance": QUANTILE_TOLERANCE,
        "scrape_p50_s": round(scrape_p50, 6),
        "client_p50_s": round(client_p50, 6),
        "p50_ratio": round(scrape_p50 / client_p50, 3),
        "scrape_p99_s": round(scrape_p99, 6),
        "client_p99_s": round(client_p99, 6),
        "p99_ratio": round(scrape_p99 / client_p99, 3),
    }

    # -- coalescing burst (fresh key so the cache cannot answer) ------
    executed_before = client.metric_value(
        "repro_service_executed_portfolios_total")
    burst_body = _request_body(CIRCUITS[0], seed=4242)
    with concurrent.futures.ThreadPoolExecutor(BURST) as pool:
        # One client per thread: each holds its own socket, so the
        # requests genuinely overlap on the server.
        def one(_):
            with ServiceClient("127.0.0.1", port, timeout=600) as c:
                return c.partition(burst_body)
        burst_start = time.perf_counter()
        payloads = list(pool.map(one, range(BURST)))
        burst_s = time.perf_counter() - burst_start
    executed_after = client.metric_value(
        "repro_service_executed_portfolios_total")
    burst_executed = int(executed_after - executed_before)
    fingerprints = {p["fingerprint"] for p in payloads}
    coalesced_count = sum(bool(p["coalesced"]) for p in payloads)
    cache_hits = sum(bool(p["cached"]) for p in payloads)

    cold_p50 = _percentile(cold_samples, 0.50)
    hit_p50 = _percentile(hit_samples, 0.50)
    return {
        "meta": {
            "scale": SCALE,
            "runs_per_request": RUNS_PER_REQUEST,
            "hit_repeats": HIT_REPEATS,
            "cold_rounds": COLD_ROUNDS,
            "quantile_samples": QUANTILE_N,
            "burst": BURST,
            "algorithm": "mlc",
            "python": platform.python_version(),
            "contract": f"hit p50 >= {MIN_SPEEDUP:.0f}x lower than cold "
                        f"p50; identical {BURST}-wide burst executes "
                        "exactly 1 portfolio; scraped p50/p99 within "
                        f"{QUANTILE_TOLERANCE:.0%} of client-measured",
        },
        "results": rows,
        "latency_agreement": agreement,
        "coalescing": {
            "burst": BURST,
            "executed_portfolios": burst_executed,
            "coalesced_responses": coalesced_count,
            "cache_hit_responses": cache_hits,
            "distinct_fingerprints": len(fingerprints),
            "burst_wall_s": round(burst_s, 6),
        },
        "summary": {
            "cold_p50_s": round(cold_p50, 6),
            "cold_p99_s": round(_percentile(cold_samples, 0.99), 6),
            "hit_p50_s": round(hit_p50, 6),
            "hit_p99_s": round(_percentile(hit_samples, 0.99), 6),
            "speedup_p50": round(cold_p50 / hit_p50, 1),
        },
    }


def print_report(report: dict) -> None:
    meta = report["meta"]
    print(f"\npartition service (scale={meta['scale']}, "
          f"runs/request={meta['runs_per_request']}, "
          f"{meta['hit_repeats']} hit repeats)")
    print(f"{'circuit':>10} {'cut':>5} {'cold':>9} {'hit p50':>9} "
          f"{'hit p99':>9} {'speedup':>8}")
    for r in report["results"]:
        print(f"{r['circuit']:>10} {r['min_cut']:5d} {r['cold_s']:9.4f} "
              f"{r['hit_p50_s']:9.5f} {r['hit_p99_s']:9.5f} "
              f"{r['speedup_p50']:7.0f}x")
    s = report["summary"]
    print(f"overall: cold p50 {s['cold_p50_s']:.4f}s, hit p50 "
          f"{s['hit_p50_s']:.5f}s -> {s['speedup_p50']:.0f}x")
    a = report["latency_agreement"]
    print(f"histogram agreement ({a['samples']} hit samples): scrape "
          f"p50 {1e3 * a['scrape_p50_s']:.3f}ms vs client "
          f"{1e3 * a['client_p50_s']:.3f}ms (x{a['p50_ratio']:.2f}), "
          f"p99 {1e3 * a['scrape_p99_s']:.3f}ms vs "
          f"{1e3 * a['client_p99_s']:.3f}ms (x{a['p99_ratio']:.2f})")
    c = report["coalescing"]
    print(f"coalescing: burst of {c['burst']} identical requests -> "
          f"{c['executed_portfolios']} executed portfolio(s), "
          f"{c['coalesced_responses']} coalesced + "
          f"{c['cache_hit_responses']} cache-hit responses in "
          f"{c['burst_wall_s']:.3f}s")
    o = report["overload"]
    print(f"overload: {o['requests']} requests at 1/{o['arrival_gap_s']}s "
          f"against max_queued={o['max_queued']} -> "
          f"{o['accepted']} accepted / {o['shed_429']} shed "
          f"({100 * o['shed_fraction']:.0f}%), accepted p50 "
          f"{o['accepted_p50_s']:.3f}s p99 {o['accepted_p99_s']:.3f}s "
          f"(deadline {o['deadline_ms']}ms)")
    lane = report["lane"]
    for name, row in lane["lanes"].items():
        print(f"lane {name}: miss p50 {1e3 * row['miss_p50_s']:.2f}ms "
              f"({row['miss_samples']}), under hits "
              f"{1e3 * row['busy_miss_p50_s']:.2f}ms "
              f"({row['busy_miss_samples']}); hit p99 "
              f"{1e3 * row['hit_p99_s']:.2f}ms ({row['hit_samples']} hits "
              f"during misses)")
    verdicts = lane["verdicts"]
    for name in ("miss", "busy_miss"):
        v = verdicts[name]
        print(f"lane {name} {verdicts['baseline']} -> "
              f"{verdicts['current']}: {1e3 * v['baseline_median_s']:.2f} "
              f"-> {1e3 * v['current_median_s']:.2f}ms "
              f"({v['delta_pct']:+.1f}%, p={v['p_value']:.4f}) "
              f"{v['verdict']}")
    print(f"lane fingerprints identical: {lane['identical_fingerprints']}")


def test_bench_service():
    report = run_bench()
    print_report(report)
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    summary = report["summary"]
    assert summary["speedup_p50"] >= MIN_SPEEDUP, (
        f"cache-hit p50 {summary['hit_p50_s']:.5f}s is only "
        f"{summary['speedup_p50']:.1f}x lower than cold p50 "
        f"{summary['cold_p50_s']:.4f}s (contract: {MIN_SPEEDUP:.0f}x)")
    agreement = report["latency_agreement"]
    for q in ("p50", "p99"):
        ratio = agreement[f"{q}_ratio"]
        assert abs(ratio - 1.0) <= QUANTILE_TOLERANCE, (
            f"scraped {q} {agreement[f'scrape_{q}_s']:.6f}s disagrees "
            f"with client-measured {agreement[f'client_{q}_s']:.6f}s by "
            f"more than {QUANTILE_TOLERANCE:.0%} "
            f"(ratio {ratio:.3f}, {agreement['samples']} samples)")
    coalescing = report["coalescing"]
    assert coalescing["executed_portfolios"] == 1, (
        f"identical {coalescing['burst']}-wide burst executed "
        f"{coalescing['executed_portfolios']} portfolios (contract: 1)")
    assert coalescing["distinct_fingerprints"] == 1
    assert report["meta"]["server_exit_code"] == 0
    overload = report["overload"]
    assert overload["shed_429"] > 0, (
        "saturating load produced no 429s — the lane queued without "
        "bound instead of shedding")
    assert overload["accepted"] > 0
    assert overload["other_errors"] == 0, overload
    assert overload["accepted_p99_s"] <= \
        2.0 * overload["deadline_ms"] / 1000.0, (
        f"accepted p99 {overload['accepted_p99_s']:.3f}s exceeds 2x the "
        f"{overload['deadline_ms']}ms deadline")
    assert overload["server_exit_code"] == 0
    lane = report["lane"]
    assert lane["identical_fingerprints"], (
        "the --jobs 1 and --jobs 2 lanes answered differently")
    assert all(row["server_exit_code"] == 0
               for row in lane["lanes"].values())


if __name__ == "__main__":
    test_bench_service()
