"""Exporters: turn a recorder into on-disk artifacts.

One format per consumer:

* **JSONL event log** — one JSON object per traced event, for replaying a
  run's timeline in a notebook or diffing two runs' behaviour.
* **Timeline CSV** — the recorder's
  :class:`~repro.obs.timeline.ReplayTimeline` as a spreadsheet-ready
  table; the final row is exact, not sampled, and matches
  :class:`StoreStats` to the bit.
* **Prometheus text format** — a scrape-shaped snapshot of the metrics
  registry, so counters and histograms drop straight into existing
  dashboards.  Histograms follow the exposition format exactly: cumulative
  ``_bucket`` samples ending in ``le="+Inf"``, then ``_sum`` and
  ``_count``; HELP text is escaped per the spec.

Every writer goes through :mod:`repro.obs.atomicio`: parent directories
are created and files land via tmp + rename, so an interrupted export
never leaves a torn artifact (the JSONL spill appends in place by
design, but its parent is created the same way).
"""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING

from repro.obs.atomicio import atomic_write
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.timeline import cell

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventTracer
    from repro.obs.timeline import ReplayTimeline


def write_events_jsonl(tracer: "EventTracer", path: str) -> int:
    """Write the tracer's events to ``path`` as JSON Lines.

    If the tracer spills to this same path, the buffered remainder is
    appended (completing the file); otherwise the in-memory events are
    written fresh.  Returns the number of events the file gained.
    """
    import os
    if tracer.spill_path == path:
        written = tracer.spill()
        if not os.path.exists(path):  # zero-event run still yields a file
            from repro.obs.atomicio import ensure_parent
            ensure_parent(path)
            open(path, "w", encoding="utf-8").close()
        return written
    events = tracer.events
    with atomic_write(path) as f:
        for ev in events:
            f.write(json.dumps(ev.to_json_dict(),
                               separators=(",", ":")) + "\n")
    return len(events)


def write_timeline_csv(timeline: "ReplayTimeline", path: str) -> int:
    """Write a replay timeline as CSV; returns the row count.

    NaN cells (a policy without a threshold) render as empty fields.
    """
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(timeline.columns)
        for row in timeline.rows:
            writer.writerow(["" if (c := cell(v)) is None else c
                             for v in row.tolist()])
    return len(timeline)


def _fmt(value: float) -> str:
    """Prometheus sample value: integers render bare, floats via repr."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _escape_help(text: str) -> str:
    """HELP escaping per the exposition format: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for m in registry:
        if m.help:
            lines.append(f"# HELP {m.name} {_escape_help(m.help)}")
        lines.append(f"# TYPE {m.name} {m.kind}")
        if isinstance(m, (Counter, Gauge)):
            lines.append(f"{m.name} {_fmt(m.value)}")
            continue
        cumulative = m.cumulative()
        for edge, count in zip(m.edges, cumulative):
            lines.append(f'{m.name}_bucket{{le="{_fmt(edge)}"}} {int(count)}')
        lines.append(f'{m.name}_bucket{{le="+Inf"}} {int(cumulative[-1])}')
        lines.append(f"{m.name}_sum {_fmt(m.sum)}")
        lines.append(f"{m.name}_count {int(cumulative[-1])}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path: str) -> None:
    with atomic_write(path) as f:
        f.write(prometheus_text(registry))
