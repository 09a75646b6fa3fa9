"""Decision-recorder tests: flight recorder, replay audit, diff-run.

Covers the observability acceptance criteria end to end:

* the recorder is a true no-op by default and never perturbs results;
* replaying a recording reproduces the exact final cut and assignment
  (bit-identical), serially and from the process pool, and
  ``--verify-states`` audits every pinned exact configuration on
  either FM pass loop, whose recordings are identical and whose
  answers the unrecorded run repeats;
* a malformed recording, old vocabulary or new, is a named replay
  mismatch, never a traceback;
* ``diff-run`` reports the first diverging decision between two
  recordings (the mlc-vs-mlf fork is pinned on the committed fixtures
  in ``tests/test_cli_views.py``);
* recordings written while a kernel mode existed (``start`` events
  carrying ``mode``) still replay;
* the CLI round-trip (``partition --record`` → ``replay`` →
  ``diff-run``) and the service surface (``"record": true`` →
  ``GET /record/<id>``) ship a replayable stream.
"""

import asyncio
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.core import ml_bipartition
from repro.core.config import MLConfig
from repro.core.quadrisection import ml_kway
from repro.core.vcycle import ml_vcycle
from repro.faults import FAULT_EXIT, FaultPlan
from repro.fm import FMConfig, fm_bipartition
from repro.harness import Algorithm
from repro.hypergraph import hierarchical_circuit, read_hmetis, write_json
from repro.obs import (BufferSink, diff_events, diff_recordings,
                       group_starts, read_record, read_trace, recorder,
                       recording, replay_recording, set_recorder)
from repro.runtime import Portfolio, execute

from .loops import each_loop

pytestmark = pytest.mark.recorder

#: Committed telemetry fixtures (see tests/test_cli_views.py).
DATA = Path(__file__).parent / "data" / "telemetry"

#: ML engines keyed by the incidence layer their refinement runs on:
#: the exact CLIP engine (ML_C) over the CSR lists.
ENGINES = {"csr": "clip"}


@pytest.fixture(scope="module")
def hier300():
    # The divergence workhorse: hierarchical structure deep enough for
    # several coarsening levels, with refinement blocks both above and
    # below the batch engine's 128-module activation floor.
    return hierarchical_circuit(300, 360, seed=2024, name="hier300")


def _ml_algorithm(engine="clip"):
    config = MLConfig(engine=engine)
    return Algorithm("mlc", lambda h, s: ml_bipartition(h, config, seed=s))


def _answers(outcome):
    return [(r.cut, list(r.result.partition.assignment))
            for r in outcome.records]


def _record_portfolio(hg, path, runs=3, seed=7, jobs=1, engine="clip"):
    result = execute(Portfolio(_ml_algorithm(engine), hg, runs=runs,
                               seed=seed, record=str(path)), jobs=jobs)
    return result


#: Exact-engine configurations whose recordings are audited move by move.
AUDITED = {
    "fm-lifo": lambda h, s: fm_bipartition(h, seed=s),
    "fm-fifo": lambda h, s: fm_bipartition(
        h, config=FMConfig(bucket_policy="fifo"), seed=s),
    "fm-random": lambda h, s: fm_bipartition(
        h, config=FMConfig(bucket_policy="random"), seed=s),
    "clip-lifo": lambda h, s: fm_bipartition(
        h, config=FMConfig(clip=True), seed=s),
    "clip-fifo": lambda h, s: fm_bipartition(
        h, config=FMConfig(clip=True, bucket_policy="fifo"), seed=s),
    "clip-random": lambda h, s: fm_bipartition(
        h, config=FMConfig(clip=True, bucket_policy="random"), seed=s),
    "fm-lookahead2": lambda h, s: fm_bipartition(
        h, config=FMConfig(lookahead=2), seed=s),
    "mlf": lambda h, s: ml_bipartition(h, MLConfig(engine="fm"), seed=s),
    "mlc": lambda h, s: ml_bipartition(h, MLConfig(engine="clip"), seed=s),
    "vcycle": lambda h, s: ml_vcycle(
        h, cycles=2, config=MLConfig(engine="clip"), seed=s),
    "kway4": lambda h, s: ml_kway(
        h, k=4, config=MLConfig(engine="fm", coarsening_threshold=100),
        seed=s),
}


class TestRecorderPlumbing:
    def test_default_recorder_is_noop(self):
        rc = recorder()
        assert rc.enabled is False
        # Emitting into the noop is legal and does nothing.
        rc.emit({"t": "mv"})

    def test_recording_context_writes_and_restores(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with recording(str(path)):
            assert recorder().enabled is True
            recorder().emit({"t": "start", "i": 0})
            recorder().emit({"t": "result", "i": 0, "cut": 3,
                             "assign": "0110"})
        assert recorder().enabled is False
        events = list(read_record(path))
        assert [e["t"] for e in events] == ["start", "result"]

    def test_recording_none_is_passthrough(self):
        with recording(None):
            assert recorder().enabled is False

    def test_buffer_recorder_drains_in_order(self):
        buf = BufferSink()
        for i in range(5):
            buf.emit({"t": "mv", "i": i})
        drained = buf.drain()
        assert [e["i"] for e in drained] == list(range(5))
        assert buf.drain() == []

    def test_group_starts_partitions_by_header(self):
        events = [
            {"t": "cycle", "c": 1},
            {"t": "start", "i": 0}, {"t": "mv", "i": 0},
            {"t": "start", "i": 1}, {"t": "mv", "i": 1},
        ]
        groups = group_starts(events)
        assert sorted(groups) == [-1, 0, 1]
        assert groups[-1][0]["t"] == "cycle"
        assert len(groups[0]) == 2 and len(groups[1]) == 2


    def test_concurrent_recordings_stay_isolated(self):
        # More threads than cores, each recording into its own sink
        # under a tiny switch interval: no decision may reach another
        # thread's sink or the process-wide default.
        default = BufferSink()
        sinks = [BufferSink() for _ in range(8)]
        barrier = threading.Barrier(len(sinks))

        def emit_into(i):
            with recording(sinks[i]):
                barrier.wait(10)
                for n in range(200):
                    recorder().emit({"t": "mv", "i": i, "n": n})

        interval = sys.getswitchinterval()
        previous = set_recorder(default)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=emit_into, args=(i,))
                       for i in range(len(sinks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
            set_recorder(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert default.events == []
        for i, sink in enumerate(sinks):
            assert [(e["i"], e["n"]) for e in sink.events] == \
                [(i, n) for n in range(200)]

    def test_read_record_skips_damaged_lines(self, tmp_path, caplog):
        path = tmp_path / "damaged.jsonl"
        path.write_text('{"t":"start","i":0,"seed":1,"alg":"fm"}\n'
                        '{"t":"mv","i":0,"m":3,bad\n'
                        '{"t":"result","i":0,"cut":2,"assign":"01"}\n'
                        '{"t":"start","i":1,"se')
        with caplog.at_level("WARNING"):
            events = list(read_record(path))
        assert [e["t"] for e in events] == ["start", "result"]
        messages = "\n".join(r.getMessage() for r in caplog.records)
        assert "corrupt record line 2" in messages
        assert "corrupt record line 4" in messages


class TestNonPerturbation:
    """Recording must never change the outcome: same seeds, same RNG
    stream, bit-identical partition with the recorder on or off."""

    @pytest.mark.parametrize("mode", list(ENGINES))
    def test_recording_does_not_perturb(self, mode, hier300, tmp_path):
        config = MLConfig(engine=ENGINES[mode])
        bare = ml_bipartition(hier300, config, seed=11)
        with recording(str(tmp_path / f"{mode}.jsonl")):
            taped = ml_bipartition(hier300, config, seed=11)
        assert taped.cut == bare.cut
        assert taped.partition.assignment == bare.partition.assignment


class TestReplay:
    """Replaying a recording against the netlist re-derives every
    cluster, audits every move's cut bookkeeping, and verifies the
    final partitions bit-for-bit."""

    @pytest.mark.parametrize("mode", list(ENGINES))
    def test_replay_reproduces_exact_result(self, mode, hier300,
                                            tmp_path):
        path = tmp_path / f"run-{mode}.jsonl"
        result = _record_portfolio(hier300, path, engine=ENGINES[mode])
        report = replay_recording(path, hier300)
        assert report.ok, report.render()
        assert report.starts == 3
        assert report.results_verified == 3
        assert not report.mismatches
        # The recording's result events match the portfolio's records.
        cuts = sorted(e["cut"] for e in read_record(path)
                      if e["t"] == "result")
        assert cuts == sorted(r.cut for r in result.records)

    def test_replay_with_state_audit(self, hier300, tmp_path):
        path = tmp_path / "audit.jsonl"
        _record_portfolio(hier300, path, runs=1, seed=5)
        report = replay_recording(path, hier300, verify_states=True)
        assert report.ok, report.render()
        assert report.moves > 0 and report.merges > 0
        assert "bookkeeping audit clean" in report.render()

    @pytest.mark.parametrize("name", sorted(AUDITED))
    def test_state_audit_every_pinned_config(self, name, hier300,
                                             tmp_path):
        # The standing oracle for the exact engines' incremental
        # bookkeeping: every recorded move of every configuration
        # pinned in tests/test_kernels.py, on each FM pass loop,
        # re-verified against a fresh state (k-way refinement records
        # no moves; its result footer is still re-measured).  A
        # recorded run takes the loop an unrecorded one takes and
        # gives its answers, and both loops write the same recording.
        recordings = []
        for loop in each_loop():
            path = tmp_path / f"audit-{loop}.jsonl"
            result = execute(Portfolio(Algorithm(name, AUDITED[name]),
                                       hier300, runs=2, seed=3,
                                       record=str(path),
                                       keep_results=True), jobs=1)
            report = replay_recording(path, hier300, verify_states=True)
            assert report.ok, (loop, report.render())
            assert report.results_verified == 2
            cuts = sorted(e["cut"] for e in read_record(path)
                          if e["t"] == "result")
            assert cuts == sorted(r.cut for r in result.records)
            plain = execute(Portfolio(Algorithm(name, AUDITED[name]),
                                      hier300, runs=2, seed=3,
                                      keep_results=True), jobs=1)
            assert _answers(plain) == _answers(result), loop
            recordings.append(path.read_bytes())
        assert all(r == recordings[0] for r in recordings)

    def test_replay_reads_start_events_with_mode(self, hier300, tmp_path):
        # Recordings from before the kernel mode was removed carry a
        # ``mode`` field in every start header; readers ignore it.
        path = tmp_path / "new.jsonl"
        _record_portfolio(hier300, path, runs=2, seed=5)
        events = list(read_record(path))
        for ev in events:
            if ev["t"] == "start":
                assert "mode" not in ev
                ev["mode"] = "csr"
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("".join(
            json.dumps(e, separators=(",", ":")) + "\n" for e in events))
        report = replay_recording(legacy, hier300, verify_states=True)
        assert report.ok and report.results_verified == 2
        assert diff_recordings(path, legacy).identical

    def test_replay_reads_mv_events_with_bucket_gain(self, hier300,
                                                      tmp_path):
        # Recordings written before the bucket gain was dropped carry a
        # ``bg`` field in every ``mv`` event; replay ignores it.
        path = tmp_path / "new.jsonl"
        _record_portfolio(hier300, path, runs=1, seed=5)
        assert not any("bg" in ev for ev in read_record(path))
        old = DATA / "mlc.record.jsonl"
        assert all("bg" in ev for ev in read_record(old) if ev["t"] == "mv")
        report = replay_recording(old, read_hmetis(DATA / "net.hgr"),
                                  verify_states=True)
        assert report.ok, report.render()
        assert report.results_verified == 2

    def test_replay_flags_tampered_cut(self, hier300, tmp_path):
        path = tmp_path / "tampered.jsonl"
        _record_portfolio(hier300, path, runs=1, seed=5)
        events = list(read_record(path))
        victim = next(e for e in events if e["t"] == "pass" and e["g"])
        victim["g"][0] += 1  # falsify the first move's gain
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("".join(
            json.dumps(e, separators=(",", ":")) + "\n" for e in events))
        report = replay_recording(corrupt, hier300, verify_states=True)
        assert not report.ok
        assert report.mismatches

    @pytest.mark.parallel
    def test_pool_recording_matches_serial(self, hier300, tmp_path):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        rs = _record_portfolio(hier300, serial, jobs=1)
        rp = _record_portfolio(hier300, pooled, jobs=2)
        assert [r.cut for r in rs.records] == [r.cut for r in rp.records]
        # Pool workers ship their events back on RunRecord.telemetry;
        # the merged stream must be decision-identical to serial.
        report = diff_recordings(serial, pooled)
        assert report.identical, report.render()
        # And the pooled stream replays clean on its own.
        replay = replay_recording(pooled, hier300)
        assert replay.ok and replay.results_verified == 3


    @pytest.mark.parallel
    def test_telemetry_survives_respawned_workers(self, hier300, tmp_path):
        # Start 1's first attempt kills its worker; the pool forks a
        # replacement from its handler thread, which never saw the
        # parent's sinks.  The channels handed to the pool must still
        # bring every final start's span and decision block home.
        trace, record = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
        result = execute(Portfolio(
            _ml_algorithm(), hier300, runs=6, seed=7, retries=1,
            faults=FaultPlan(targeted={(1, 1): FAULT_EXIT}),
            trace=str(trace), record=str(record)), jobs=2)
        assert [r.status for r in result.records] == ["ok"] * 6
        assert result.records[1].attempts == 2
        spans = {(e["args"]["index"], e["args"]["attempt"])
                 for e in read_trace(trace)
                 if e.get("name") == "portfolio.start"
                 and e["args"]["status"] == "ok"}
        assert {(r.index, r.attempts) for r in result.records} <= spans
        report = replay_recording(record, hier300)
        assert report.ok, report.render()
        assert report.results_verified == len(result.records)


def _first(events, kind, where=lambda e: True):
    return next(e for e in events if e["t"] == kind and where(e))


def _has_moves(ev):
    return bool(ev["m"])


def _insert_after_first_fm(events, event):
    """Put ``event`` inside the first refinement block, as the batch
    engine of the removed ``mlb`` algorithm wrote its events."""
    events.insert(events.index(_first(events, "fm")) + 1, event)


#: Damage done to one event of a recording of ``net.hgr``: the committed
#: fixture for the old vocabulary (``merge`` and ``mv`` events written
#: out), a fresh recording for the new one (``match`` and ``pass``
#: lists).
MALFORMED = {
    "old-mv-lacks-cut": ("old", lambda evs: _first(evs, "mv").pop("c")),
    "old-mv-module-is-str": ("old", lambda evs: _first(evs, "mv").update(
        m=str(_first(evs, "mv")["m"]))),
    "old-mv-module-out-of-range": ("old", lambda evs: _first(
        evs, "mv").update(m=10 ** 6)),
    "old-merge-module-negative": ("old", lambda evs: _first(
        evs, "merge").update(v=-3)),
    "old-fm-init-is-int": ("old", lambda evs: _first(evs, "fm").update(
        init=101)),
    "old-pass-lacks-k": ("old", lambda evs: _first(evs, "pass").pop("k")),
    "old-mv-side-disagrees": ("old", lambda evs: _first(evs, "mv").update(
        s=1 - _first(evs, "mv")["s"])),
    "old-mv-cut-disagrees": ("old", lambda evs: _first(evs, "mv").update(
        c=_first(evs, "mv")["c"] + 1)),
    "old-batch-event": ("old", lambda evs: _insert_after_first_fm(
        evs, {"t": "batch", "r": 0, "mods": [0, 1], "c": 0})),
    "old-polish-event": ("old", lambda evs: _insert_after_first_fm(
        evs, {"t": "polish", "mods": [0], "c": 0})),
    "new-pass-g-short": ("new", lambda evs: _first(
        evs, "pass", _has_moves)["g"].pop()),
    "new-pass-mv-disagrees": ("new", lambda evs: _first(
        evs, "pass", _has_moves).update(mv=0)),
    "new-pass-module-out-of-range": ("new", lambda evs: _first(
        evs, "pass", _has_moves)["m"].__setitem__(0, 10 ** 6)),
    "new-pass-gain-is-str": ("new", lambda evs: _first(
        evs, "pass", _has_moves)["g"].__setitem__(0, "1")),
    "new-pass-lacks-k": ("new", lambda evs: _first(evs, "pass").pop("k")),
    "new-match-odd-length": ("new", lambda evs: _first(
        evs, "match")["p"].pop()),
    "new-match-module-out-of-range": ("new", lambda evs: _first(
        evs, "match")["p"].__setitem__(0, 10 ** 6)),
    "new-fm-init-is-int": ("new", lambda evs: _first(evs, "fm").update(
        init=101)),
    "new-fm-lacks-cut": ("new", lambda evs: _first(evs, "fm").pop("c")),
}


class TestMalformedRecording:
    """``repro replay`` names every kind of damage as a mismatch and
    exits 1; it never raises."""

    @pytest.fixture(scope="class")
    def recordings(self, tmp_path_factory):
        from repro.cli import main
        new = tmp_path_factory.mktemp("new") / "mlc.record.jsonl"
        assert main(["partition", str(DATA / "net.hgr"), "--algorithm",
                     "mlc", "--seed", "1", "--runs", "2",
                     "--record", str(new)]) == 0
        return {"old": DATA / "mlc.record.jsonl", "new": new}

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_damage_is_a_named_mismatch(self, damage, recordings,
                                        tmp_path, capsys):
        from repro.cli import main
        vocabulary, mutate = MALFORMED[damage]
        events = list(read_record(recordings[vocabulary]))
        assert {"old": "mv", "new": "match"}[vocabulary] in \
            {e["t"] for e in events}
        mutate(events)
        path = tmp_path / "damaged.jsonl"
        path.write_text("".join(
            json.dumps(e, separators=(",", ":")) + "\n" for e in events))
        capsys.readouterr()
        assert main(["replay", str(path), str(DATA / "net.hgr"),
                     "--verify-states"]) == 1
        assert "MISMATCHES" in capsys.readouterr().out


class TestDiffRun:
    def test_exhaustion_divergence(self):
        fm = {"t": "fm", "n": 3, "mns": None, "c": 5, "init": "010"}
        a = [{"t": "start", "i": 0}, fm,
             {"t": "pass", "p": 1, "k": 2, "mv": 2, "c": 4,
              "m": [1, 2], "g": [1, 0]}]
        b = [{"t": "start", "i": 0}, fm,
             {"t": "pass", "p": 1, "k": 1, "mv": 1, "c": 4,
              "m": [1], "g": [1]}]
        report = diff_events(a, b)
        assert not report.identical
        first = report.first()
        assert first.b is None and first.a["m"] == 2


class TestCLIRoundTrip:
    """partition --record → replay → diff-run, through cli.main."""

    @pytest.fixture
    def netlist_file(self, hier300, tmp_path):
        path = tmp_path / "hier300.json"
        write_json(hier300, path)
        return str(path)

    def _partition(self, netlist_file, record, extra=()):
        from repro.cli import main
        return main(["partition", netlist_file, "--algorithm", "mlc",
                     "--runs", "2", "--seed", "5",
                     "--record", str(record), *extra])

    def test_record_replay_diff(self, netlist_file, tmp_path, capsys):
        from repro.cli import main
        rec_csr = tmp_path / "csr.record.jsonl"
        rec_fm = tmp_path / "fm.record.jsonl"
        assert self._partition(netlist_file, rec_csr) == 0
        assert "decision recording written" in capsys.readouterr().err

        assert main(["replay", str(rec_csr), netlist_file,
                     "--verify-states"]) == 0
        out = capsys.readouterr().out
        assert "verified bit-identical: 2/2" in out

        # Identical inputs → diff-run exits 0.
        assert main(["diff-run", str(rec_csr), str(rec_csr)]) == 0
        assert "identical" in capsys.readouterr().out

        assert main(["partition", netlist_file, "--algorithm", "mlf",
                     "--runs", "2", "--seed", "5",
                     "--record", str(rec_fm)]) == 0
        capsys.readouterr()
        # Divergence → diff(1)-style exit code 1, with the fork shown.
        assert main(["diff-run", str(rec_csr), str(rec_fm)]) == 1
        assert "first divergence" in capsys.readouterr().out

    def test_missing_recording_is_an_error(self, tmp_path, capsys):
        # The tolerant reader maps a missing file to an empty stream;
        # the CLI must not let that silently "verify" nothing.
        from repro.cli import main
        assert main(["replay", str(tmp_path / "no.jsonl"),
                     str(tmp_path / "no.json")]) == 2
        assert main(["diff-run", str(tmp_path / "no.jsonl"),
                     str(tmp_path / "no.jsonl")]) == 2
        assert "recording not found" in capsys.readouterr().err

    def test_replay_rejects_wrong_netlist(self, netlist_file, tmp_path,
                                          capsys):
        from repro.cli import main
        rec = tmp_path / "r.jsonl"
        assert self._partition(netlist_file, rec) == 0
        other = tmp_path / "other.json"
        write_json(hierarchical_circuit(280, 330, seed=1, name="other"),
                   other)
        capsys.readouterr()
        # Structural mismatch surfaces either as a replay mismatch
        # (exit 1) or a hard ReplayError (exit 2) — never success.
        assert main(["replay", str(rec), str(other)]) in (1, 2)


class TestServiceRecording:
    """``"record": true`` requests execute uncached and expose a
    replayable stream at ``GET /record/<id>``."""

    def _serve(self, body):
        from repro.service import ServiceEngine
        from repro.service.protocol import PartitionRequest
        engine = ServiceEngine(jobs=1)

        async def main():
            engine.start()
            try:
                payloads = []
                for item in body:
                    payloads.append(await engine.serve(
                        PartitionRequest.from_json(item)))
                return payloads
            finally:
                await engine.drain(10)

        return engine, asyncio.run(main())

    def _body(self, **overrides):
        body = {
            "netlist": {"generate": {"name": "primary1", "scale": 0.05,
                                     "seed": 1}},
            "algorithm": "fm", "runs": 2, "seed": 7,
        }
        body.update(overrides)
        return body

    def test_record_payload_and_download(self):
        engine, payloads = self._serve([self._body(record=True)])
        payload = payloads[0]
        assert payload["record"] == f"/record/{payload['id']}"
        path = engine.spooled_file("record", payload["id"])
        events = [e for block in group_starts(read_record(path)).values()
                  for e in block]
        kinds = {e["t"] for e in events}
        assert {"start", "pass", "result"} <= kinds
        results = [e for e in events if e["t"] == "result"]
        assert sorted(e["cut"] for e in results) == sorted(payload["cuts"])

    def test_recorded_requests_bypass_cache(self):
        engine, payloads = self._serve(
            [self._body(record=True), self._body(record=True)])
        assert all(p["cached"] is False for p in payloads)
        assert engine.counters()["executed_portfolios"] == 2
        # Distinct runs, distinct recordings.
        assert payloads[0]["record"] != payloads[1]["record"]

    def test_unknown_recording_is_404(self):
        from repro.service import ServiceEngine
        from repro.service.protocol import ProtocolError
        engine = ServiceEngine(jobs=1)
        with pytest.raises(ProtocolError) as excinfo:
            engine.spooled_file("record", "nope")
        assert excinfo.value.status == 404
