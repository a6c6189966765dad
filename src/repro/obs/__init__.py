"""obs — the observability substrate: tracing, metrics, profiling,
flight recording.

One package every layer feeds instead of growing its own telemetry:

* :mod:`repro.obs.trace` — causal spans over virtual time (heal ->
  layer -> per-message delivery; lease transitions as span events),
  exported as deterministic Chrome-trace JSON (Perfetto-loadable) or
  JSONL.
* :mod:`repro.obs.histogram` / :mod:`repro.obs.metrics` — streaming
  O(1)-memory counters, gauges, and log-bucketed mergeable histograms
  (the one percentile implementation in the repo).
* :mod:`repro.obs.profile` — per-phase wall/virtual-time timers on the
  hot paths.
* :mod:`repro.obs.recorder` — a ring buffer of recent structured events,
  dumped to JSONL with an event-id range on any invariant failure.
* :mod:`repro.obs.stream` — the streaming half: telemetry sinks
  (rotating JSONL, windowed aggregation), incremental metrics flushes,
  and the head-sampling :class:`~repro.obs.stream.SamplingTracer` whose
  span memory is bounded by heals in flight, not campaign length.
* :mod:`repro.obs.slo` — declarative SLO budgets evaluated per window,
  escalating breaches into alerts, a flight-recorder dump, and forced
  trace sampling.

The typed event-log schema, the trace-query operators and the
certificate machinery live in :mod:`repro.audit`.

Wired into campaigns through the ``obs=`` knob on
:func:`~repro.harness.run_campaign` / ``run_churn_campaign`` — see
``docs/OBSERVABILITY.md``; the soak service (:mod:`repro.soak`) drives
the streaming half over checkpointed long-horizon campaigns.
"""

from .histogram import DEFAULT_GROWTH, LogHistogram
from .metrics import Counter, Gauge, MetricsRegistry
from .profile import PhaseProfiler
from .recorder import FlightRecorder
from .slo import (
    SLO_OPS,
    SloAlert,
    SloSpec,
    SloWatchdog,
    default_slos,
    fault_slos,
)
from .spec import OBS_MODES, ObsInput, ObsSpec, ObsState, ObsSummary, resolve_obs
from .stream import (
    JsonlSink,
    MemorySink,
    MetricsStreamer,
    SamplingTracer,
    TelemetrySink,
    WindowedSink,
    validate_trace_jsonl,
)
from .trace import (
    CONTROL_TRACK,
    DEFAULT_MAX_SPANS,
    JSONL_KEYS,
    NO_TRACE,
    PID_CONTROL,
    PID_PROTOCOL,
    NullTracer,
    Span,
    SpanError,
    Tracer,
    record_to_dict,
    validate_chrome_trace,
)

__all__ = [
    "CONTROL_TRACK",
    "DEFAULT_GROWTH",
    "DEFAULT_MAX_SPANS",
    "JSONL_KEYS",
    "NO_TRACE",
    "OBS_MODES",
    "PID_CONTROL",
    "PID_PROTOCOL",
    "SLO_OPS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "JsonlSink",
    "LogHistogram",
    "MemorySink",
    "MetricsRegistry",
    "MetricsStreamer",
    "NullTracer",
    "ObsInput",
    "ObsSpec",
    "ObsState",
    "ObsSummary",
    "PhaseProfiler",
    "SamplingTracer",
    "SloAlert",
    "SloSpec",
    "SloWatchdog",
    "Span",
    "SpanError",
    "TelemetrySink",
    "Tracer",
    "WindowedSink",
    "default_slos",
    "fault_slos",
    "record_to_dict",
    "resolve_obs",
    "validate_trace_jsonl",
    "validate_chrome_trace",
]
