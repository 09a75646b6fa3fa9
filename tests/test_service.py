"""Service-layer tests: protocol, caches, coalescing, batching.

Everything here carries the ``service`` marker and stays in-process
(no sockets — the HTTP layer has its own file).  The tests run the
engine's asyncio pipeline via ``asyncio.run`` so the suite needs no
async plugin.
"""

import asyncio

import pytest

from repro.hypergraph import Hypergraph, write_json
from repro.obs import read_ledger, stable_view
from repro.runtime import (Portfolio, execute, fingerprint_digest,
                           FINGERPRINT_DIGEST_LENGTH)
from repro.service import (Coalescer, LRUCache, NetlistSpec,
                           PartitionRequest, ProtocolError, ServiceEngine,
                           inline_netlist, netlist_digest)
from repro.solvers import build_algorithm

pytestmark = pytest.mark.service


def _request(**overrides) -> PartitionRequest:
    body = {
        "netlist": {"generate": {"name": "primary1", "scale": 0.05,
                                 "seed": 1}},
        "algorithm": "fm",
        "runs": 2,
        "seed": 7,
    }
    body.update(overrides)
    return PartitionRequest.from_json(body)


class TestFingerprintDigest:
    def test_golden_pin(self):
        # The ledger's key convention, frozen: changing the digest
        # function silently orphans every existing ledger entry and
        # cached result.  This literal must never change.
        fp = "fm|tiny|runs=2\n0:11:ok:3:1\n1:22:ok:4:1"
        assert fingerprint_digest(fp) == "f2f4aea915d33ebf"
        assert len(fingerprint_digest(fp)) == FINGERPRINT_DIGEST_LENGTH

    def test_ledger_uses_shared_helper(self, tiny_hg):
        from repro.obs.ledger import build_entry
        portfolio = Portfolio(
            algorithm=build_algorithm("fm"), hg=tiny_hg, runs=2, seed=3)
        result = execute(portfolio)
        entry = build_entry(result, portfolio, jobs=1)
        assert entry["fingerprint"] == fingerprint_digest(
            result.fingerprint())
        assert entry["fingerprint"] == result.fingerprint_digest()


class TestProtocol:
    def test_request_keys_split_on_algorithm_only(self):
        keys = {alg: _request(algorithm=alg).config_key()
                for alg in ("mlc", "mlf")}
        assert keys["mlc"] != keys["mlf"]
        assert set(keys["mlc"]) == set(keys["mlf"])
        assert "kernels" not in keys["mlc"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            _request(frobnicate=1)

    def test_missing_netlist_rejected(self):
        with pytest.raises(ProtocolError, match="netlist"):
            PartitionRequest.from_json({"algorithm": "fm"})

    def test_bool_does_not_pass_as_int(self):
        with pytest.raises(ProtocolError, match="must be int"):
            _request(runs=True)

    @pytest.mark.parametrize("overrides", [
        {"algorithm": "nope"},
        {"k": 1},
        {"runs": 0},
        {"runs": 10_001},
        {"ratio": 0.0},
        {"ratio": 1.5},
        {"tolerance": 1.0},
        {"mode": "warp"},
        {"mode": "ml-reuse", "algorithm": "fm"},
        {"mode": "ml-reuse", "algorithm": "mlc", "k": 4},
        {"netlist": {"inline": {"nets": [[0, 1]]}}},  # no num_modules
        {"netlist": {}},
        {"netlist": {"inline": {"nets": [], "num_modules": 1},
                     "path": "x.hgr"}},
    ])
    def test_invalid_requests_rejected(self, overrides):
        with pytest.raises(ProtocolError):
            _request(**overrides)

    def test_request_key_is_stable_and_seed_sensitive(self):
        assert _request().request_key() == _request().request_key()
        assert _request().request_key() != \
            _request(seed=8).request_key()
        assert _request().request_key() != \
            _request(runs=3).request_key()
        assert _request().request_key() != \
            _request(algorithm="clip").request_key()

    def test_request_key_ignores_scheduling_knobs(self):
        # The determinism contract: worker count and tracing never
        # change outcomes, so they must never split cache entries.
        assert _request().request_key() == \
            _request(trace=True).request_key()
        assert _request().request_key() == \
            _request(include_assignment=True).request_key()

    def test_batch_key_groups_across_seeds_only(self):
        assert _request(seed=1).batch_key() == _request(seed=2).batch_key()
        assert _request(seed=1, runs=9).batch_key() == \
            _request(seed=2).batch_key()
        assert _request().batch_key() != \
            _request(algorithm="clip").batch_key()

    def test_netlist_digest_is_submission_independent(self, tiny_hg):
        spec = NetlistSpec.from_json({"inline": inline_netlist(tiny_hg)})
        assert netlist_digest(spec.load()) == netlist_digest(tiny_hg)

    def test_path_spec_keys_on_content(self, tiny_hg, tmp_path):
        path = tmp_path / "tiny.json"
        write_json(tiny_hg, str(path))
        first = NetlistSpec.from_json({"path": str(path)})
        hg = first.load()
        assert hg.num_modules == tiny_hg.num_modules
        # Same bytes -> same key; changed bytes -> different key, so a
        # file rewritten on disk can never be served from a stale
        # cache entry.
        assert NetlistSpec.from_json({"path": str(path)}).key == first.key
        altered = Hypergraph(
            nets=[list(tiny_hg.pins(e)) for e in tiny_hg.all_nets()],
            num_modules=tiny_hg.num_modules, areas=[2.0] * 6, name="tiny")
        write_json(altered, str(path))
        assert NetlistSpec.from_json({"path": str(path)}).key != first.key

    def test_unreadable_path_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="not readable"):
            NetlistSpec.from_json({"path": "/does/not/exist.hgr"})


class TestLRUCache:
    def test_eviction_order_and_stats(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)           # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["misses"] == 1

    def test_eviction_never_serves_wrong_key(self):
        # Regression guard for the cache-correctness acceptance
        # criterion: after arbitrary churn, every hit carries the value
        # stored under exactly that key.
        cache = LRUCache(max_entries=4)
        for i in range(100):
            cache.put(f"k{i}", f"v{i}")
            for j in range(max(0, i - 6), i + 1):
                hit = cache.get(f"k{j}")
                assert hit is None or hit == f"v{j}"

    def test_get_or_build_builds_once(self):
        cache = LRUCache(max_entries=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: calls.append(1) or 42)
        assert value == 42 and len(calls) == 1


class TestEngineServing:
    def _engine(self, **kw) -> ServiceEngine:
        kw.setdefault("jobs", 1)
        return ServiceEngine(**kw)

    def _serve_all(self, engine, requests):
        async def main():
            engine.start()
            try:
                return await asyncio.gather(
                    *(engine.serve(r) for r in requests))
            finally:
                await engine.drain(10)
        return asyncio.run(main())

    def test_repeat_request_is_a_cache_hit(self):
        engine = self._engine()

        async def main():
            engine.start()
            try:
                first = await engine.serve(_request())
                second = await engine.serve(_request())
            finally:
                await engine.drain(10)
            return first, second

        first, second = asyncio.run(main())
        assert first["cached"] is False and second["cached"] is True
        assert first["fingerprint"] == second["fingerprint"]
        assert first["cuts"] == second["cuts"]
        assert engine.counters()["executed_portfolios"] == 1
        assert engine.counters()["cache_hits"] == 1

    def test_concurrent_identical_requests_execute_once(self):
        engine = self._engine()
        payloads = self._serve_all(engine, [_request() for _ in range(6)])
        assert len({p["fingerprint"] for p in payloads}) == 1
        counters = engine.counters()
        # The acceptance criterion: N identical concurrent requests
        # collapse into exactly one executed portfolio.
        assert counters["executed_portfolios"] == 1
        assert counters["coalesced"] == 5
        assert sum(p["coalesced"] for p in payloads) == 5

    def test_batched_seeds_match_standalone_fingerprints(self, tiny_hg):
        engine = self._engine()
        seeds = (11, 22, 33)
        requests = [
            PartitionRequest.from_json({
                "netlist": {"inline": inline_netlist(tiny_hg)},
                "algorithm": "fm", "runs": 2, "seed": s})
            for s in seeds
        ]
        payloads = self._serve_all(engine, requests)
        counters = engine.counters()
        assert counters["executed_portfolios"] == 1
        assert counters["batched_requests"] == len(seeds)
        assert counters["executed_starts"] == 2 * len(seeds)
        for seed, payload in zip(seeds, payloads):
            standalone = execute(Portfolio(
                algorithm=build_algorithm("fm"), hg=tiny_hg, runs=2,
                seed=seed), jobs=1)
            assert payload["fingerprint"] == \
                standalone.fingerprint_digest()
            assert payload["cuts"] == standalone.cuts
            assert payload["seed"] == seed

    def test_batched_member_ledger_entry_matches_standalone(
            self, tiny_hg, tmp_path, monkeypatch):
        # The config hash covers retries and faults, so a batch member
        # must be recorded with the daemon's knobs like a lone request.
        def request(seed):
            return PartitionRequest.from_json({
                "netlist": {"inline": inline_netlist(tiny_hg)},
                "algorithm": "fm", "runs": 2, "seed": seed})

        entries = {}
        for name, seeds in (("alone", (5,)), ("batched", (9, 5, 6))):
            ledger = tmp_path / f"{name}.jsonl"
            monkeypatch.setenv("REPRO_LEDGER", str(ledger))
            engine = self._engine(retries=2)
            self._serve_all(engine, [request(s) for s in seeds])
            assert engine.counters()["executed_portfolios"] == 1
            entries[name] = next(e for e in read_ledger(ledger)
                                 if e["seed"] == "5")
        assert stable_view(entries["batched"]) == \
            stable_view(entries["alone"])

    def test_mixed_config_requests_do_not_merge(self, tiny_hg):
        engine = self._engine()
        requests = [
            PartitionRequest.from_json({
                "netlist": {"inline": inline_netlist(tiny_hg)},
                "algorithm": algo, "runs": 1, "seed": 3})
            for algo in ("fm", "clip")
        ]
        payloads = self._serve_all(engine, requests)
        assert engine.counters()["executed_portfolios"] == 2
        assert engine.counters()["batched_requests"] == 0
        assert payloads[0]["fingerprint"] != payloads[1]["fingerprint"]

    def test_assignment_honored_per_request_not_per_cache_entry(self):
        engine = self._engine()

        async def main():
            engine.start()
            try:
                bare = await engine.serve(_request())
                withasg = await engine.serve(
                    _request(include_assignment=True))
            finally:
                await engine.drain(10)
            return bare, withasg

        bare, withasg = asyncio.run(main())
        assert "assignment" not in bare
        assert withasg["cached"] is True  # same request key
        assert len(withasg["assignment"]) > 0
        assert set(withasg["assignment"]) == set(range(withasg["k"]))

    def test_netlist_cache_shares_parsed_hypergraph(self, tiny_hg):
        engine = self._engine()
        body = {"netlist": {"inline": inline_netlist(tiny_hg)},
                "algorithm": "fm", "runs": 1}
        requests = [PartitionRequest.from_json({**body, "seed": s})
                    for s in range(4)]
        # Serve sequentially so every request re-resolves the netlist.
        async def main():
            engine.start()
            try:
                for request in requests:
                    await engine.serve(request)
            finally:
                await engine.drain(10)
        asyncio.run(main())
        stats = engine.netlists.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == len(requests) - 1

    def test_ml_reuse_shares_one_hierarchy(self, medium_hg):
        engine = self._engine(jobs=1)
        body = {"netlist": {"inline": inline_netlist(medium_hg)},
                "algorithm": "mlc", "mode": "ml-reuse", "runs": 1}
        requests = [PartitionRequest.from_json({**body, "seed": s})
                    for s in range(3)]
        async def main():
            engine.start()
            try:
                for request in requests:
                    await engine.serve(request)
            finally:
                await engine.drain(10)
        asyncio.run(main())
        assert engine.hierarchies.misses == 1
        assert engine.hierarchies.hits == len(requests) - 1

    def test_failing_request_surfaces_as_protocol_error(self):
        # An unknown generator name parses (the spec is lazy) but fails
        # at load time, on the lane's worker thread; the error must
        # come back through the future as a ProtocolError, and the key
        # must be retryable (not poisoned in cache or coalescer).
        engine = self._engine()
        bad = PartitionRequest.from_json({
            "netlist": {"generate": {"name": "no-such-circuit"}},
            "algorithm": "fm"})

        async def main():
            engine.start()
            try:
                with pytest.raises(ProtocolError):
                    await engine.serve(bad)
                with pytest.raises(ProtocolError):
                    await engine.serve(bad)
            finally:
                await engine.drain(10)
        asyncio.run(main())
        assert engine.counters()["cache_hits"] == 0
        assert not engine.coalescer.inflight(bad.request_key())


class TestLanePaths:
    """Every way the lane executes a batch, pinned against the
    standalone runtime: a lone request, a traced and recorded one, and
    a breaker-degraded batch of two."""

    @staticmethod
    def _inline(hg, **overrides) -> PartitionRequest:
        body = {"netlist": {"inline": inline_netlist(hg)},
                "algorithm": "fm", "runs": 2, "seed": 5}
        body.update(overrides)
        return PartitionRequest.from_json(body)

    @staticmethod
    def _standalone_entry(monkeypatch, path, portfolio):
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        result = execute(portfolio, jobs=1)
        return result, next(read_ledger(path))

    def test_single_request_matches_standalone_execute(
            self, tiny_hg, tmp_path, monkeypatch):
        served_ledger = tmp_path / "served.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(served_ledger))
        engine = ServiceEngine(jobs=1, retries=1)

        async def main():
            engine.start()
            try:
                return await engine.serve(self._inline(tiny_hg))
            finally:
                await engine.drain(10)

        payload = asyncio.run(main())
        [served] = list(read_ledger(served_ledger))
        alone, entry = self._standalone_entry(
            monkeypatch, tmp_path / "alone.jsonl",
            Portfolio(algorithm=build_algorithm("fm"), hg=tiny_hg, runs=2,
                      seed=5, retries=1))
        assert payload["fingerprint"] == alone.fingerprint_digest()
        assert payload["cuts"] == alone.cuts
        assert stable_view(served) == stable_view(entry)
        counters = engine.counters()
        assert counters["executed_portfolios"] == 1
        assert counters["executed_starts"] == 2
        assert counters["batched_requests"] == 0

    def test_traced_request_ledger_has_phases_and_files_download(
            self, tiny_hg, tmp_path, monkeypatch):
        from repro.obs import read_trace
        from .test_service_server import _ServerThread, _body
        ledger = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        with _ServerThread() as srv, srv.client() as client:
            payload = client.partition(
                _body(tiny_hg, trace=True, record=True))
            trace_raw = client.trace(payload["id"])
            record_raw = client.record(payload["id"])
        [entry] = list(read_ledger(ledger))
        assert entry["fingerprint"] == payload["fingerprint"]
        assert entry["trace_id"] == payload["trace_id"]
        assert entry["phases"]["portfolio.start"]["count"] == 2
        copy = tmp_path / "downloaded.trace.jsonl"
        copy.write_bytes(trace_raw)
        assert any(e.get("ph") == "X" for e in read_trace(str(copy)))
        assert record_raw.count(b'"t":"start"') == 2

    def test_breaker_open_batch_serves_each_member_one_start(
            self, tiny_hg, tmp_path, monkeypatch, caplog):
        from repro.faults import FaultPlan
        from repro.service import canonical_json
        ledger = tmp_path / "served.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        # Every full-portfolio start raises, so two requests trip the
        # breaker; its degraded answers run without retries or faults.
        engine = ServiceEngine(
            jobs=1, retries=1, breaker_failures=2, breaker_cooldown=600,
            faults=FaultPlan(rate=1.0, kinds=("raise",), attempts=99))
        key = canonical_json(self._inline(tiny_hg).netlist.key)
        batches = []
        runner = engine.lane._runner
        engine.lane._runner = lambda batch: (
            batches.append(len(batch)) or runner(batch))

        async def main():
            engine.start()
            try:
                for seed in (1, 2):
                    with pytest.raises(ProtocolError):
                        await engine.serve(self._inline(tiny_hg, seed=seed))
                before = engine.breaker._states[key].consecutive_failures
                payloads = await asyncio.gather(
                    *(engine.serve(self._inline(tiny_hg, seed=seed))
                      for seed in (3, 4)))
                return before, payloads
            finally:
                await engine.drain(10)

        before, payloads = asyncio.run(main())
        assert batches == [1, 1, 2]
        assert engine.breaker._states[key].consecutive_failures == before
        assert engine.breaker.stats()["trips"] == 1
        served = {e["seed"]: e for e in read_ledger(ledger)}
        for seed, payload in zip((3, 4), payloads):
            assert payload["degraded"] is True
            assert payload["degraded_reason"] == "breaker_open"
            assert payload["runs"] == 1 and len(payload["cuts"]) == 1
            alone, entry = self._standalone_entry(
                monkeypatch, tmp_path / f"alone{seed}.jsonl",
                Portfolio(algorithm=build_algorithm("fm"), hg=tiny_hg,
                          runs=1, seed=seed))
            assert payload["fingerprint"] == alone.fingerprint_digest()
            assert served[str(seed)]["config_hash"] == entry["config_hash"]
            assert stable_view(served[str(seed)]) == stable_view(entry)
        counters = engine.counters()
        assert counters["degraded_served"] == 2
        assert counters["executed_portfolios"] == 2 + 2
        assert counters["executed_starts"] == 2 * 2 + 2
        assert counters["batched_requests"] == 0
        warned = [r for r in caplog.records
                  if "served degraded single-start" in r.getMessage()]
        assert len(warned) == 2


class TestCoalescer:
    def test_followers_share_leader_result(self):
        coalescer = Coalescer()
        calls = []

        async def main():
            async def factory():
                calls.append(1)
                await asyncio.sleep(0.01)
                return "payload"
            return await asyncio.gather(
                *(coalescer.run("k", factory) for _ in range(5)))

        results = asyncio.run(main())
        assert results == ["payload"] * 5
        assert len(calls) == 1
        assert coalescer.leaders == 1 and coalescer.coalesced == 4

    def test_leader_failure_propagates_then_clears(self):
        coalescer = Coalescer()

        async def main():
            async def boom():
                await asyncio.sleep(0.01)
                raise ValueError("exec failed")
            results = await asyncio.gather(
                *(coalescer.run("k", boom) for _ in range(3)),
                return_exceptions=True)
            assert all(isinstance(r, ValueError) for r in results)
            # The key is free again: a later request re-executes.
            async def ok():
                return "recovered"
            assert await coalescer.run("k", ok) == "recovered"

        asyncio.run(main())
        assert coalescer.inflight("k") is False
