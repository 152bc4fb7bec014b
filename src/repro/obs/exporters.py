"""Exporters: turn a recorder into on-disk artifacts.

One format per consumer:

* **JSONL event log** — one JSON object per traced event, for replaying a
  run's timeline in a notebook or diffing two runs' behaviour.
* **Timeline CSV** — the recorder's
  :class:`~repro.obs.timeline.ReplayTimeline` as a spreadsheet-ready
  table; the final row is exact, not sampled, and matches
  :class:`StoreStats` to the bit.
* **Prometheus text format** — a scrape-shaped snapshot of a store's
  metrics (:func:`~repro.obs.metrics.store_metrics`), so counters and
  histograms drop straight into existing dashboards.  Histograms follow
  the exposition format exactly: cumulative ``_bucket`` samples ending
  in ``le="+Inf"``, then ``_sum`` and ``_count``; HELP text is escaped
  per the spec.

Every writer goes through :mod:`repro.obs.atomicio`: parent directories
are created and files land via tmp + rename, so an interrupted export
never leaves a torn artifact (the JSONL spill appends in place by
design, but its parent is created the same way).
"""

from __future__ import annotations

import csv
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import ConfigError
from repro.obs.atomicio import atomic_write
from repro.obs.timeline import cell

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventTracer
    from repro.obs.metrics import Metric
    from repro.obs.timeline import ReplayTimeline


def write_events_jsonl(tracer: "EventTracer", path: str) -> int:
    """Complete the JSON Lines event log of a tracer that spills to
    ``path``: append the records it still holds.  Returns the number of
    events the file gained.

    Only a tracer with a sink keeps its events (one without only counts
    them), so ``path`` must be the tracer's ``spill_path``.
    """
    import os
    if tracer.spill_path != path:
        raise ConfigError(f"the tracer spills to {tracer.spill_path!r}, "
                          f"not {path!r}; it keeps no other events")
    written = tracer.spill()
    if not os.path.exists(path):  # zero-event run still yields a file
        from repro.obs.atomicio import ensure_parent
        ensure_parent(path)
        open(path, "w", encoding="utf-8").close()
    return written


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


def prometheus_text(metrics: Iterable["Metric"]) -> str:
    """Render metrics in the Prometheus text exposition format."""
    lines: list[str] = []
    for m in metrics:
        if m.help:
            lines.append(f"# HELP {m.name} {_escape_help(m.help)}")
        lines.append(f"# TYPE {m.name} {m.kind}")
        if m.kind != "histogram":
            lines.append(f"{m.name} {_fmt(m.value)}")
            continue
        cumulative = list(accumulate(m.value["counts"]))
        for edge, count in zip(m.value["edges"], cumulative):
            lines.append(f'{m.name}_bucket{{le="{_fmt(edge)}"}} {count}')
        lines.append(f'{m.name}_bucket{{le="+Inf"}} {cumulative[-1]}')
        lines.append(f"{m.name}_sum {_fmt(m.value['sum'])}")
        lines.append(f"{m.name}_count {cumulative[-1]}")
    return "\n".join(lines) + "\n"


def write_prometheus(metrics: Iterable["Metric"], path: str) -> None:
    with atomic_write(path) as f:
        f.write(prometheus_text(metrics))
