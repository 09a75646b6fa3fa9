"""Tests for the parallel multi-start runtime subsystem."""

import copy
import multiprocessing
import multiprocessing.pool
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from repro.core import MLConfig, build_hierarchy, ml_bipartition
from repro.errors import ClusteringError, ConfigError, HarnessError
from repro.harness import Algorithm, run_cell, run_matrix
from repro.hypergraph import hierarchical_circuit, load_circuit
from repro.rng import child_seeds
from repro.runtime import (BatchPortfolio, HierarchyCache, Job, Portfolio,
                           ProcessExecutor, SerialExecutor, STATUS_FAILED,
                           STATUS_OK, STATUS_TIMEOUT, execute, get_executor,
                           ml_portfolio, ml_reuse_algorithm)
from repro.runtime import executor as executor_module
from repro.fm import fm_bipartition
from repro.solvers import build_algorithm


def _fm() -> Algorithm:
    return Algorithm("FM", lambda hg, s: fm_bipartition(hg, seed=s))


def _failing_on_even_seed() -> Algorithm:
    def run(hg, s):
        if s % 2 == 0:
            raise RuntimeError(f"injected crash for seed {s}")
        return fm_bipartition(hg, seed=s)
    return Algorithm("FLAKY", run)


def _always_failing() -> Algorithm:
    def run(hg, s):
        raise ValueError("always broken")
    return Algorithm("BROKEN", run)


class TestDeterminism:
    """Same seed => same cuts at any worker count."""

    @pytest.mark.parametrize("circuit", ["struct", "primary2"])
    def test_run_cell_suite_circuits(self, circuit):
        hg = load_circuit(circuit, scale=0.05, seed=0)
        serial = run_cell(_fm(), hg, runs=4, seed=11, jobs=1)
        parallel = run_cell(_fm(), hg, runs=4, seed=11, jobs=4)
        assert sorted(serial.cuts) == sorted(parallel.cuts)
        assert serial.cuts == parallel.cuts  # index order, not just sets

    def test_ml_portfolio_worker_counts(self, medium_hg):
        serial = ml_portfolio(medium_hg, runs=4, seed=5, jobs=1,
                              cache=HierarchyCache())
        parallel = ml_portfolio(medium_hg, runs=4, seed=5, jobs=2,
                                cache=HierarchyCache())
        assert serial.cuts == parallel.cuts

    def test_run_matrix_accepts_jobs(self, medium_hg):
        one = run_matrix([_fm()], [medium_hg], runs=2, seed=0, jobs=1)
        two = run_matrix([_fm()], [medium_hg], runs=2, seed=0, jobs=2)
        assert one["medium"]["FM"].cuts == two["medium"]["FM"].cuts

    def test_serial_matches_historical_child_seed_protocol(self, medium_hg):
        """jobs=1 reproduces the pre-runtime serial runner exactly."""
        from repro.rng import child_seeds
        expected = [fm_bipartition(medium_hg, seed=s).cut
                    for s in child_seeds(7, 3)]
        assert run_cell(_fm(), medium_hg, runs=3, seed=7).cuts == expected


class TestPrefixProperty:
    """Start i is identical whether 3 or 6 runs were asked for — the
    paper's Table VII takes its 10-run column as a prefix of the 100."""

    @pytest.mark.parametrize(
        "jobs", [1, pytest.param(2, marks=pytest.mark.parallel)])
    def test_prefix_of_longer_portfolio(self, medium_hg, jobs):
        algorithm = build_algorithm("mlc")
        short = execute(Portfolio(algorithm, medium_hg, runs=3, seed=7),
                        jobs=jobs)
        full = execute(Portfolio(algorithm, medium_hg, runs=6, seed=7),
                       jobs=jobs)
        assert short.cuts == full.cuts[:3]
        assert [r.seed for r in short.records] == \
            [r.seed for r in full.records[:3]]


class TestFaultIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_survives_crashing_runs(self, medium_hg, jobs):
        outcome = execute(
            Portfolio(_failing_on_even_seed(), medium_hg, runs=8, seed=0),
            jobs=jobs)
        assert outcome.runs == 8
        assert outcome.failures and outcome.ok_records
        for record in outcome.failures:
            assert record.status == STATUS_FAILED
            assert "injected crash" in record.error
            assert record.cut is None
        stats = outcome.to_cell_stats()
        assert stats.failures == len(outcome.failures)
        assert stats.runs == len(outcome.ok_records)
        assert stats.min_cut <= stats.avg_cut  # survivors aggregate fine

    def test_all_failed_portfolio(self, medium_hg):
        outcome = execute(
            Portfolio(_always_failing(), medium_hg, runs=3, seed=0))
        assert [r.status for r in outcome.records] == [STATUS_FAILED] * 3
        with pytest.raises(HarnessError):
            outcome.best
        stats = outcome.to_cell_stats()
        assert stats.runs == 0 and stats.failures == 3
        for prop in ("min_cut", "avg_cut", "std_cut"):
            with pytest.raises(HarnessError):
                getattr(stats, prop)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retries_recorded(self, medium_hg, jobs):
        outcome = execute(
            Portfolio(_always_failing(), medium_hg, runs=2, seed=0,
                      retries=2),
            jobs=jobs)
        assert all(r.attempts == 3 for r in outcome.records)
        assert all(r.status == STATUS_FAILED for r in outcome.records)

    @pytest.mark.parallel
    def test_budget_flags_hung_start(self, medium_hg):
        def hang(hg, s):
            time.sleep(30)
        outcome = execute(
            Portfolio(Algorithm("HANG", hang), medium_hg, runs=2, seed=0,
                      budget_seconds=0.5),
            jobs=2)
        assert outcome.runs == 2
        assert all(r.status == STATUS_TIMEOUT for r in outcome.records)
        assert outcome.wall_seconds < 20  # the sweep did not wait them out


class TestExecutorFaultPaths:
    """The previously untested executor fault paths: dying, hanging,
    and never-returning workers."""

    @pytest.mark.parallel
    def test_dead_worker_recorded_failed_pool_survives(self, medium_hg):
        """A worker that os._exits mid-task is detected through the
        start-notice channel and recorded as a (retryable) failure; the
        pool respawns a replacement and the sweep completes."""
        def die_on_even_seed(hg, s):
            if s % 2 == 0:
                os._exit(3)
            return fm_bipartition(hg, seed=s)

        outcome = execute(
            Portfolio(Algorithm("DIE", die_on_even_seed), medium_hg,
                      runs=6, seed=0),
            jobs=2)
        assert outcome.runs == 6  # every start accounted for
        dead = [r for r in outcome.records if r.status == STATUS_FAILED]
        alive = [r for r in outcome.records if r.ok]
        assert dead and alive
        for record in dead:
            assert record.seed % 2 == 0
            assert "died before returning" in record.error
            assert record.cut is None
        assert all(r.seed % 2 == 1 for r in alive)

    @pytest.mark.parallel
    def test_dead_worker_is_retried(self, medium_hg):
        """Worker death is a *failure*, so retries apply — unlike a
        timeout.  A start that dies once and then runs clean recovers."""
        flag = multiprocessing.get_context("fork").Value("i", 0)

        def die_once(hg, s):
            with flag.get_lock():
                first = flag.value == 0
                flag.value = 1
            if first:
                os._exit(3)
            return fm_bipartition(hg, seed=s)

        outcome = execute(
            Portfolio(Algorithm("DIE1", die_once), medium_hg, runs=2,
                      seed=0, retries=1),
            jobs=2)
        assert all(r.ok for r in outcome.records)
        assert max(r.attempts for r in outcome.records) == 2

    @pytest.mark.parallel
    def test_finished_start_is_not_charged_to_its_dead_worker(
            self, medium_hg, monkeypatch):
        """A worker that returns one start and dies on its next task
        keeps the start it finished.  The pool's result handler is held
        until the collector has seen that worker's pid gone, so the
        death is visible before the result; the collector must still
        take the result."""
        owner = multiprocessing.get_context("fork").Value("i", 0)
        pid_alive = executor_module._pid_alive
        seen_dead = threading.Event()

        def gone(pid):
            return pid != 0 and not pid_alive(pid)

        def watched(pid):
            alive = pid_alive(pid)
            if not alive and pid == owner.value:
                seen_dead.set()
            return alive

        def finish_then_die(hg, s):
            if s == first_seed:
                owner.value = os.getpid()
                return fm_bipartition(hg, seed=s)
            if os.getpid() == owner.value:
                os._exit(3)
            # Busy until the owner has died, so the owner is the worker
            # that takes the next task.
            deadline = time.monotonic() + 30
            while not gone(owner.value) and time.monotonic() < deadline:
                time.sleep(0.005)
            return fm_bipartition(hg, seed=s)

        portfolio = Portfolio(Algorithm("DIE2", finish_then_die), medium_hg,
                              runs=3, seed=0)
        first_seed = portfolio.jobs()[0].seed
        set_result = multiprocessing.pool.ApplyResult._set

        def held(self, i, obj):
            success, value = obj
            if success and getattr(value, "seed", None) == first_seed:
                seen_dead.wait(30)
            set_result(self, i, obj)

        monkeypatch.setattr(executor_module, "_pid_alive", watched)
        monkeypatch.setattr(multiprocessing.pool.ApplyResult, "_set", held)
        outcome = execute(portfolio, jobs=2)
        assert seen_dead.is_set()
        first, *rest = outcome.records
        assert first.ok and first.seed == first_seed
        dead = [r for r in rest if r.status == STATUS_FAILED]
        assert len(dead) == 1 and "died before returning" in dead[0].error
        assert all(r.ok for r in rest if r not in dead)

    @pytest.mark.parallel
    def test_hung_worker_not_retried_even_with_retries(self, medium_hg):
        """Timeouts are never retried (a hung worker already cost a
        pool slot); the pool is terminated instead of waited out."""
        def hang(hg, s):
            time.sleep(30)

        t0 = time.perf_counter()
        outcome = execute(
            Portfolio(Algorithm("HANG", hang), medium_hg, runs=2, seed=0,
                      budget_seconds=0.5, retries=3),
            jobs=2)
        elapsed = time.perf_counter() - t0
        assert all(r.status == STATUS_TIMEOUT for r in outcome.records)
        assert all(r.attempts == 1 for r in outcome.records)
        assert elapsed < 20

    def test_collect_deadline_finite_without_budget(self, medium_hg,
                                                    monkeypatch):
        """With budget_seconds=None the collector still bounds its wait
        (DEFAULT_COLLECT_TIMEOUT) — a hung worker can delay a sweep but
        never wedge it — and the deadline runs from collection start,
        not task dispatch."""
        import repro.runtime.executor as executor_module
        monkeypatch.setattr(executor_module, "DEFAULT_COLLECT_TIMEOUT", 0.2)

        class NeverReturns:
            def get(self, timeout):
                time.sleep(timeout)
                raise multiprocessing.TimeoutError

        portfolio = Portfolio(_fm(), medium_hg, runs=1, seed=0)
        assert portfolio.budget_seconds is None
        record = ProcessExecutor._collect(portfolio, NeverReturns(), 0, 99,
                                          1, {})
        assert record.status == STATUS_TIMEOUT
        assert not record.retryable
        assert "0.2s of collection" in record.error
        assert "collection start, not task dispatch" in record.error

    def test_collect_deadline_uses_budget(self, medium_hg):
        """An explicit budget overrides the default collection bound."""
        class NeverReturns:
            def get(self, timeout):
                time.sleep(timeout)
                raise multiprocessing.TimeoutError

        portfolio = Portfolio(_fm(), medium_hg, runs=1, seed=0,
                              budget_seconds=0.2)
        t0 = time.perf_counter()
        record = ProcessExecutor._collect(portfolio, NeverReturns(), 0, 99,
                                          1, {})
        assert record.status == STATUS_TIMEOUT
        assert time.perf_counter() - t0 < 5.0


class TestHierarchyReuse:
    def test_prebuilt_matches_fresh_run(self, large_hg):
        config = MLConfig(engine="clip", matching_ratio=0.5)
        for seed in (3, 11):
            fresh = ml_bipartition(large_hg, config=config, seed=seed)
            prebuilt = build_hierarchy(large_hg, config, seed=seed)
            reused = ml_bipartition(large_hg, config=config, seed=seed,
                                    hierarchy=prebuilt)
            assert reused.cut == fresh.cut
            assert reused.partition == fresh.partition

    def test_refinement_never_mutates_hierarchy(self, large_hg):
        config = MLConfig(matching_ratio=0.6)
        hierarchy = build_hierarchy(large_hg, config, seed=1)
        netlists_before = copy.deepcopy(hierarchy.netlists)
        clusterings_before = copy.deepcopy(hierarchy.clusterings)
        for seed in (1, 2, 3):
            ml_bipartition(large_hg, config=config, seed=seed,
                           hierarchy=hierarchy)
        assert hierarchy.netlists == netlists_before
        assert [c.cluster_of for c in hierarchy.clusterings] \
            == [c.cluster_of for c in clusterings_before]

    def test_portfolio_coarsens_exactly_once(self, medium_hg, monkeypatch):
        import repro.runtime.cache as cache_module
        calls = []
        real = cache_module.build_hierarchy

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "build_hierarchy", spy)
        outcome = ml_portfolio(medium_hg, runs=6, seed=4,
                               cache=HierarchyCache())
        assert len(outcome.cuts) == 6
        assert len(calls) == 1

    def test_cache_hit_returns_same_object(self, medium_hg):
        cache = HierarchyCache()
        config = MLConfig()
        first = cache.get(medium_hg, config, seed=0)
        second = cache.get(medium_hg, config, seed=0)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.get(medium_hg, config, seed=1) is not first
        assert cache.misses == 2

    def test_cache_evicts_lru(self, medium_hg):
        cache = HierarchyCache(max_entries=2)
        config = MLConfig()
        for seed in range(3):
            cache.get(medium_hg, config, seed=seed)
        assert len(cache) == 2
        assert cache.get(medium_hg, config, seed=0) is not None
        assert cache.misses == 4  # seed 0 was evicted and rebuilt

    def test_cache_evicts_least_recently_used_first(self, medium_hg):
        cache = HierarchyCache(max_entries=2)
        config = MLConfig()
        first = cache.get(medium_hg, config, seed=0)
        cache.get(medium_hg, config, seed=1)
        assert cache.get(medium_hg, config, seed=0) is first  # 1 is LRU
        cache.get(medium_hg, config, seed=2)  # evicts seed 1, not 0
        assert cache.stats() == {"entries": 2, "max_entries": 2,
                                 "hits": 1, "misses": 3, "evictions": 1}
        assert cache.get(medium_hg, config, seed=0) is first
        cache.get(medium_hg, config, seed=1)
        assert (cache.hits, cache.misses) == (2, 4)

    def test_foreign_hierarchy_rejected(self, medium_hg, large_hg):
        hierarchy = build_hierarchy(large_hg, MLConfig(), seed=0)
        with pytest.raises(ClusteringError):
            ml_bipartition(medium_hg, seed=0, hierarchy=hierarchy)


class TestCellStats:
    def test_wall_and_cpu_recorded(self, medium_hg):
        stats = run_cell(_fm(), medium_hg, runs=3, seed=0)
        assert stats.wall_seconds > 0
        assert stats.cpu_seconds > 0
        assert stats.failures == 0

    def test_zero_runs_still_rejected(self, medium_hg):
        with pytest.raises(ConfigError):
            run_cell(_fm(), medium_hg, runs=0)


class TestExecutors:
    def test_get_executor_selection(self):
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor(3), ProcessExecutor)
        with pytest.raises(ConfigError):
            get_executor(0)

    def test_process_executor_needs_two_workers(self):
        with pytest.raises(ConfigError):
            ProcessExecutor(1)

    def test_explicit_executor_wins(self, medium_hg):
        executor = SerialExecutor()
        outcome = execute(Portfolio(_fm(), medium_hg, runs=2, seed=0),
                          jobs=8, executor=executor)
        assert outcome.jobs == 1
        assert all(r.worker == "serial" for r in outcome.records)

    def test_worker_ids_recorded(self, medium_hg):
        outcome = execute(Portfolio(_fm(), medium_hg, runs=4, seed=0),
                          jobs=2)
        assert all(r.worker.startswith("pid:") for r in outcome.records)

    def test_portfolio_validation(self, medium_hg):
        with pytest.raises(ConfigError):
            Portfolio(_fm(), medium_hg, runs=0)
        with pytest.raises(ConfigError):
            Portfolio(_fm(), medium_hg, runs=1, retries=-1)
        with pytest.raises(ConfigError):
            Portfolio(_fm(), medium_hg, runs=1, budget_seconds=0)
        with pytest.raises(ConfigError):
            Portfolio(object(), medium_hg, runs=1)


@pytest.mark.parallel
class TestParallelSmoke:
    """Tier-1-safe smoke test: a real 2-worker portfolio, tiny circuit."""

    def test_two_worker_portfolio(self):
        hg = hierarchical_circuit(120, 150, seed=9, name="smoke")
        outcome = ml_portfolio(hg, runs=4, seed=2, jobs=2,
                               cache=HierarchyCache())
        assert outcome.jobs == 2
        assert [r.status for r in outcome.records] == [STATUS_OK] * 4
        reference = ml_portfolio(hg, runs=4, seed=2, jobs=1,
                                 cache=HierarchyCache())
        assert outcome.cuts == reference.cuts
        stats = outcome.to_cell_stats()
        assert stats.runs == 4
        assert stats.min_cut == min(outcome.cuts)


# Module-level (so picklable) twins of the HANG and DIE fixtures above:
# a live pool receives them pickled instead of forking for them.

def _hang(hg, s):
    time.sleep(30)


def _die_on_even_seed(hg, s):
    if s % 2 == 0:
        os._exit(3)
    return fm_bipartition(hg, seed=s)


@dataclass(frozen=True)
class _StaleNotice:
    """Start ``first_seed`` posts a notice for ``(0, 1)`` carrying an
    earlier run's token and a dead pid, then runs slowly enough for the
    collector to poll.  It lands after the start's own notice, so a
    collector that ignored run tokens would probe the dead pid and
    record start 0 ``failed``."""

    dead_pid: int
    first_seed: int

    def __call__(self, hg, seed):
        if seed == self.first_seed:
            token = executor_module._ACTIVE[0]
            executor_module._NOTICES.put((token - 1, 0, 1, self.dead_pid))
            time.sleep(0.4)
        return fm_bipartition(hg, seed=seed)


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _pids(outcome) -> set:
    return {int(r.worker[4:]) for r in outcome.records
            if r.worker.startswith("pid:")}


def _assert_same_answers(got, want):
    assert got.cuts == want.cuts
    assert [r.status for r in got.records] == \
        [r.status for r in want.records]
    assert got.fingerprint_digest() == want.fingerprint_digest()
    assert [r.result.partition.assignment for r in got.ok_records] == \
        [r.result.partition.assignment for r in want.ok_records]


@pytest.mark.parallel
class TestExecutorReuse:
    """One ``ProcessExecutor`` keeps one pool across runs: a picklable
    portfolio is shipped to the live pool, an unpicklable one gets a
    new fork, and every run answers exactly like the serial executor."""

    def test_one_pool_serves_many_portfolios(self, medium_hg):
        other = load_circuit("struct", scale=0.05, seed=0)
        config = MLConfig(engine="clip")
        hierarchy = build_hierarchy(medium_hg, config, seed=3)
        batch_jobs = [Job(index=i, seed=s) for i, s in
                      enumerate(child_seeds(3, 2) + child_seeds(4, 3))]
        portfolios = [
            Portfolio(build_algorithm("mlc"), medium_hg, runs=4, seed=1),
            Portfolio(build_algorithm("fm"), other, runs=4, seed=2),
            BatchPortfolio(build_algorithm("clip"), medium_hg, runs=5,
                           seed=3, job_list=batch_jobs),
            Portfolio(ml_reuse_algorithm(config, hierarchy), medium_hg,
                      runs=4, seed=5),
            Portfolio(_fm(), other, runs=4, seed=6),  # a lambda
            Portfolio(build_algorithm("mlf"), other, runs=4, seed=7),
        ]
        for portfolio in portfolios:
            portfolio.keep_results = True
        pids = []
        with ProcessExecutor(2) as pool:
            for portfolio in portfolios:
                got = pool.run(portfolio)
                _assert_same_answers(got, SerialExecutor().run(portfolio))
                pids.append(_pids(got))
        shipped = set().union(*pids[:4])
        assert len(shipped) <= 2  # four runs, one two-worker pool
        # The lambda does not pickle: the live pool is closed and a new
        # one forked for it, which the next run then reuses.
        assert not pids[4] & shipped
        assert not pids[5] & shipped
        assert len(pids[4] | pids[5]) <= 2
        assert pool._pool is None
        for pid in shipped | pids[4] | pids[5]:
            assert not executor_module._pid_alive(pid)

    def test_next_run_answers_after_worker_death(self, medium_hg):
        follow = Portfolio(build_algorithm("fm"), medium_hg, runs=4,
                           seed=9, keep_results=True)
        with ProcessExecutor(2) as pool:
            pool.run(follow)
            live = pool._pool
            died = pool.run(Portfolio(Algorithm("DIE", _die_on_even_seed),
                                      medium_hg, runs=6, seed=0))
            dead = [r for r in died.records if r.status == STATUS_FAILED]
            assert dead and all("died before returning" in r.error
                                for r in dead)
            assert pool._pool is live  # the pool respawned, not replaced
            _assert_same_answers(pool.run(follow),
                                 SerialExecutor().run(follow))

    def test_next_run_answers_after_timeout(self, medium_hg):
        follow = Portfolio(build_algorithm("fm"), medium_hg, runs=4,
                           seed=9, keep_results=True)
        with ProcessExecutor(2) as pool:
            before = _pids(pool.run(follow))
            hung = pool.run(Portfolio(Algorithm("HANG", _hang), medium_hg,
                                      runs=2, seed=0, budget_seconds=0.5))
            assert all(r.status == STATUS_TIMEOUT for r in hung.records)
            assert pool._pool is None  # discarded with its hung workers
            for pid in before:
                assert not executor_module._pid_alive(pid)
            after = pool.run(follow)
            _assert_same_answers(after, SerialExecutor().run(follow))
            assert not _pids(after) & before

    def test_stale_notice_never_matches_a_later_run(self, medium_hg):
        first_seed = child_seeds(0, 2)[0]
        portfolio = Portfolio(
            Algorithm("STALE", _StaleNotice(_dead_pid(), first_seed)),
            medium_hg, runs=2, seed=0)
        with ProcessExecutor(2) as pool:
            pool.run(Portfolio(build_algorithm("fm"), medium_hg, runs=2,
                               seed=1))
            outcome = pool.run(portfolio)
        assert [r.status for r in outcome.records] == [STATUS_OK] * 2
        assert all(r.attempts == 1 for r in outcome.records)

    def test_execute_with_jobs_closes_its_pool(self, medium_hg):
        outcome = execute(Portfolio(build_algorithm("fm"), medium_hg,
                                    runs=4, seed=0), jobs=2)
        for pid in _pids(outcome):
            assert not executor_module._pid_alive(pid)
