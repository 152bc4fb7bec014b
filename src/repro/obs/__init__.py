"""Observability: metrics, event tracing, profiling and exporters.

The package has five layers:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  collected in a :class:`MetricsRegistry`;
* :mod:`repro.obs.events` — a typed event tracer: per-type counts, and
  with a JSONL sink every event as a plain record, formatted on read;
* :mod:`repro.obs.recorder` — the hook surface the simulator calls.  Every
  instrumented hot path holds a recorder; the default
  :data:`~repro.obs.recorder.NULL_RECORDER` makes each hook a no-op, so
  instrumentation costs nothing unless an :class:`ObsRecorder` is
  attached.  The replay loop reports user writes through bulk hooks
  once per settle and settles wherever a recorder samples, so metrics,
  timeline rows and events equal a per-block replay's;
* :mod:`repro.obs.profile` — wall-clock phase spans with Chrome
  ``trace_event`` and top-N table exports;
* :mod:`repro.obs.timeline` — the recorder's one time series: periodic
  per-N-blocks snapshots of traffic counters, WA, padding, occupancy and
  threshold position as a NumPy matrix;
* :mod:`repro.obs.attribution` — causal attribution: the per-group WA
  ledger, GC provenance, and deterministic cross-shard snapshot merging (the default
  :data:`~repro.obs.attribution.NULL_ATTRIBUTION` makes every hook a
  no-op);
* :mod:`repro.obs.analyze` — the ``adapt-repro analyze`` bottleneck
  explainer over profiler traces, attribution snapshots and timelines.

Exporters (:mod:`repro.obs.exporters`) turn a recorder into artifacts: a
JSONL event log, a timeline CSV and a Prometheus text-format snapshot —
all written atomically (:mod:`repro.obs.atomicio`).
"""

from repro.obs.analyze import (
    analyze,
    load_chrome_trace,
    load_timeline_tail,
    render_report,
    write_report_json,
)
from repro.obs.atomicio import atomic_write, ensure_parent
from repro.obs.attribution import (
    NULL_ATTRIBUTION,
    AttributionRecorder,
    NullAttribution,
    merge_attribution_snapshots,
    write_attribution_json,
)
from repro.obs.events import (
    EV_CHUNK_FLUSH,
    EV_DEMOTION,
    EV_GC_PASS,
    EV_LAZY_APPEND,
    EV_PADDING,
    EV_SHADOW_APPEND,
    EV_THRESHOLD_SWITCH,
    EV_USER_WRITE,
    EVENT_TYPES,
    Event,
    EventTracer,
)
from repro.obs.exporters import (
    prometheus_text,
    write_events_jsonl,
    write_prometheus,
    write_timeline_csv,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    current,
    set_current,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    ObsRecorder,
)
from repro.obs.timeline import ATTR_COLUMNS, BASE_COLUMNS, ReplayTimeline

__all__ = [
    "AttributionRecorder",
    "NullAttribution",
    "NULL_ATTRIBUTION",
    "merge_attribution_snapshots",
    "write_attribution_json",
    "analyze",
    "load_chrome_trace",
    "load_timeline_tail",
    "render_report",
    "write_report_json",
    "ATTR_COLUMNS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Event",
    "EventTracer",
    "EVENT_TYPES",
    "EV_USER_WRITE",
    "EV_CHUNK_FLUSH",
    "EV_PADDING",
    "EV_SHADOW_APPEND",
    "EV_LAZY_APPEND",
    "EV_GC_PASS",
    "EV_DEMOTION",
    "EV_THRESHOLD_SWITCH",
    "NullRecorder",
    "NULL_RECORDER",
    "ObsRecorder",
    "NullProfiler",
    "NULL_PROFILER",
    "PhaseProfiler",
    "current",
    "set_current",
    "BASE_COLUMNS",
    "ReplayTimeline",
    "atomic_write",
    "ensure_parent",
    "prometheus_text",
    "write_events_jsonl",
    "write_prometheus",
    "write_timeline_csv",
]
