"""Observability: metrics, event tracing, profiling and exporters.

The package has seven modules besides its exporters:

* :mod:`repro.obs.metrics` — a store's counters, gauges and histograms,
  read off its stats, policy, auditor and attribution ledger;
* :mod:`repro.obs.events` — a typed event tracer: per-type counts, and
  with a JSONL sink every event as a plain record, formatted on read;
* :mod:`repro.obs.recorder` — :class:`~repro.obs.recorder.ObsRecorder`,
  a store observer (:mod:`repro.common.observer`) with a timeline and an
  event tracer; a store without one holds ``obs = None`` and pays
  nothing.  The replay loop reports user writes once per settle and
  settles wherever a recorder samples, so timeline rows and events equal
  a per-block replay's;
* :mod:`repro.obs.profile` — wall-clock phase spans with Chrome
  ``trace_event`` and top-N table exports;
* :mod:`repro.obs.timeline` — the recorder's one time series: periodic
  per-N-blocks snapshots of traffic counters, WA, padding, occupancy and
  threshold position as a NumPy matrix;
* :mod:`repro.obs.attribution` — causal attribution: the per-group WA
  ledger, GC provenance, and deterministic cross-shard snapshot merging;
* :mod:`repro.obs.analyze` — the ``adapt-repro analyze`` bottleneck
  explainer over profiler traces, attribution snapshots and timelines.

Exporters (:mod:`repro.obs.exporters`) turn a recorder into artifacts: a
JSONL event log, a timeline CSV and a Prometheus text-format snapshot —
all written atomically (:mod:`repro.obs.atomicio`).

The package re-exports nothing: import each name from its module, so a
replay process loads the profiler and not the analyzer or the exporters.
"""
