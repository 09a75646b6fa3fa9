"""Observability: tracing, decision recording, metrics, and logging.

Individually-activated layers with one shared contract — **zero
overhead when disabled**:

* :mod:`repro.obs.events` — the one event pipeline both telemetry
  streams below run through: the sink family (no-op, in-memory,
  JSONL file), per-thread installation over a process-wide default,
  the pool-worker capture/absorb transport, and the tolerant JSONL
  reader every file in this package is read back with;
* :mod:`repro.obs.trace` — spans: Chrome trace-event /
  Perfetto-compatible files.  ``with tracing("out.jsonl"): ...``
  captures per-level coarsening spans, per-pass FM telemetry, and
  per-start portfolio spans (merged across worker processes);
* :mod:`repro.obs.recorder` — decisions: the flight recorder's compact
  JSONL stream of each Match call's pairs, each FM/CLIP pass's moves
  and gains, and the level boundaries (``--record``,
  ``GET /record``);
* :mod:`repro.obs.metrics` — counters/gauges/histograms rendered in
  the Prometheus text format.  ``with collecting_metrics() as reg:``;
* :mod:`repro.obs.log` — the quiet-by-default ``repro.*`` stdlib
  logging hierarchy (``-v``/``--log-level`` on the CLI).

Instrumented hot paths sample their channel's sink once per coarse
operation and guard event construction behind its ``enabled`` flag;
with every layer off the cost is a handful of attribute reads per FM
call, asserted end-to-end by ``benchmarks/bench_obs_overhead.py``.

On top of the emitting layers sit the *consuming* layers:

* :mod:`repro.obs.ledger` — the append-only JSONL run ledger every
  portfolio execution records into (opt-out ``REPRO_LEDGER=off``);
* :mod:`repro.obs.compare` — median / bootstrap-CI / sign-test
  comparison of recorded runs (``repro compare --gate``);
* :mod:`repro.obs.summary` — the readers: one fold per trace (phase
  table, Table VIII split, per-level attribution, cut vs pass,
  per-request service trees) and one walk per recorded start
  (decisions, cut curve, per-pass gain histograms);
* :mod:`repro.obs.report` — the markdown / HTML report
  (``repro report``);
* :mod:`repro.obs.replay` — re-applies a recording against a fresh
  ``PartitionState``, auditing the engines' incremental bookkeeping
  and the final partition bit for bit;
* :mod:`repro.obs.diffrun` — aligns two recordings and names the
  first diverging decision (``repro diff-run``).

The consuming layers and the ``repro top`` console are offline
tools: their names resolve on first access (:mod:`repro.lazy`), so a
partition run or a daemon never compiles them.
"""

from ..lazy import lazy_exports
from .log import configure_logging, get_logger
from .metrics import (MetricsRegistry, NoopMetrics, collecting_metrics,
                      lint_prometheus, metrics, set_metrics,
                      write_prometheus)
from .profile import (SamplingProfiler, enable_memory_profiling,
                      memory_peak, memory_profiling_enabled)
from .events import (BufferSink, JsonlSink, NullSink, Sink, read_jsonl,
                     set_trace_context, trace_context, trace_scope)
from .trace import read_trace, set_tracer, tracer, tracing
from .ledger import (LEDGER_ENV, LEDGER_VERSION, append_entry, git_sha,
                     ledger_enabled, ledger_path, read_ledger,
                     record_result, stable_view)
from .recorder import (group_starts, read_record, recorder, recording,
                       set_recorder)

__all__ = [
    "Sink", "NullSink", "BufferSink", "JsonlSink", "read_jsonl",
    "tracer", "set_tracer", "tracing", "read_trace",
    "trace_context", "set_trace_context", "trace_scope",
    "metrics", "set_metrics", "collecting_metrics", "MetricsRegistry",
    "NoopMetrics", "write_prometheus", "lint_prometheus",
    "SamplingProfiler", "memory_peak", "enable_memory_profiling",
    "memory_profiling_enabled",
    "get_logger", "configure_logging",
    "summarize_trace", "TraceSummary",
    "DecisionReport", "decision_from_events", "decision_report",
    "render_status", "run_top",
    "LEDGER_ENV", "LEDGER_VERSION", "ledger_path", "ledger_enabled",
    "append_entry", "read_ledger", "record_result",
    "stable_view", "git_sha",
    "Comparison", "sign_test", "bootstrap_delta_ci", "compare_samples",
    "compare_sample_sets", "load_samples",
    "build_report",
    "recorder", "set_recorder", "recording", "read_record", "group_starts",
    "ReplayError", "ReplayReport", "clustering_from_merges",
    "replay_events", "replay_recording",
    "DiffReport", "Divergence", "diff_events", "diff_recordings",
]

__getattr__ = lazy_exports(__name__, {
    ".summary": ("DecisionReport", "TraceSummary", "decision_from_events",
                 "decision_report", "summarize_trace"),
    ".console": ("render_status", "run_top"),
    ".replay": ("ReplayError", "ReplayReport", "clustering_from_merges",
                "replay_events", "replay_recording"),
    ".diffrun": ("DiffReport", "Divergence", "diff_events",
                 "diff_recordings"),
    ".compare": ("Comparison", "bootstrap_delta_ci", "compare_sample_sets",
                 "compare_samples", "load_samples", "sign_test"),
    ".report": ("build_report",),
})
