"""The recorder: a store observer that keeps one time series and, with
a sink, the event log; its metrics are a view of the store.

:class:`ObsRecorder` samples its :class:`~repro.obs.timeline.
ReplayTimeline` every ``timeline_every`` user blocks, marking each row
with a ``user_write`` event.  It keeps no counter: its metrics and event
counts are read off the bound store when it snapshots
(:func:`~repro.obs.metrics.store_metrics`), so it hears no read, flush,
victim or decision.  Only a tracer with a ``spill_path`` hears those, to
log their records (:meth:`~ObsRecorder.event_log`).  The recorder runs
about 0.013 times per user block
(``test_obs_hook_calls_per_user_block_bounded``), and imports nothing
from the simulator layers it observes, keeping the import graph acyclic.
"""

from __future__ import annotations

from typing import Any

from repro.common.observer import StoreObserver
from repro.obs.events import (
    EV_AUDIT_VIOLATION,
    EV_CHUNK_FLUSH,
    EV_DEMOTION,
    EV_GC_PASS,
    EV_LAZY_APPEND,
    EV_PADDING,
    EV_SHADOW_APPEND,
    EV_THRESHOLD_SWITCH,
    EV_USER_WRITE,
    EventTracer,
)
from repro.obs.metrics import Metric, store_metrics
from repro.obs.timeline import TIMELINE_EVERY, ReplayTimeline


class ObsRecorder(StoreObserver):
    """Live recorder: a timeline and an event tracer over a store.

    ``store.replay`` reports user writes once per settle, and settles
    wherever :meth:`next_sample_seq` says a row is due, so the timeline
    rows and the event stream equal a per-block replay's
    (``tests/lss/test_replay_loop.py`` compares them).

    Args:
        timeline_every: append one timeline row (and one ``user_write``
            marker event) every N accepted user blocks.
        spill_path: optional JSONL file every event is appended to;
            without one the tracer only counts its markers.
    """

    __slots__ = ("timeline", "tracer", "_store")

    def __init__(self, timeline_every: int = TIMELINE_EVERY,
                 spill_path: str | None = None) -> None:
        self.timeline = ReplayTimeline(timeline_every)
        self.tracer = EventTracer(spill_path=spill_path)
        self._store: Any = None

    # ------------------------------------------------------------------
    # store events
    # ------------------------------------------------------------------
    def bind(self, store: Any) -> None:
        self._store = store
        self.timeline.bind(store)

    def event_log(self) -> EventTracer | None:
        """The observer that logs the store's flush, victim and decision
        records (a spilling tracer), or ``None``; the store subscribes
        it after its own observers."""
        return self.tracer if self.tracer.spill_path is not None else None

    def finalize(self) -> None:
        # Always close the timeline with an exact final row: exporters
        # and tests rely on the last row matching StoreStats to the bit.
        self.timeline.finalize(self._store.now_us)

    def next_sample_seq(self) -> int:
        return self.timeline.next_sample_seq()

    def user_writes(self, lbas, locs, start_seq: int, now_us: int) -> None:
        blocks = self._store.stats.user_blocks_requested
        if blocks >= self.timeline.next_sample_seq():
            # The store settled exactly on the boundary: the per-block
            # row, with one user_write marker event.
            self.timeline.sample(now_us)
            self.tracer.emit(EV_USER_WRITE, now_us, int(lbas[-1]), blocks)

    # ------------------------------------------------------------------
    # views of the store
    # ------------------------------------------------------------------
    def metrics(self) -> list[Metric]:
        """The bound store's metrics, in exposition order."""
        return store_metrics(self._store)

    def snapshot(self) -> dict:
        """Plain-dict summary: metrics, event counts, final timeline row
        (JSON-safe: NaN is ``None``).

        Everything is picklable, so :func:`replay_volume` can attach it to
        a :class:`VolumeResult` even across worker processes.
        """
        snap: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for m in self.metrics():
            snap[m.kind + "s"][m.name] = m.value
        # The records a spilling tracer logs, as the store, the policy
        # and the auditor count them.
        c = snap["counters"]
        padded = (c["lss_chunk_flushes_deadline_total"]
                  + c["lss_chunk_flushes_forced_total"])
        aggregator = getattr(self._store.policy, "aggregator", None)
        events = dict(self.tracer.counts)
        for type_, count in (
                (EV_CHUNK_FLUSH, c["lss_chunk_flushes_full_total"] + padded),
                (EV_PADDING, padded),
                (EV_LAZY_APPEND, self._store.stats.lazy_appends),
                (EV_GC_PASS, c["lss_gc_passes_total"]),
                (EV_SHADOW_APPEND, (aggregator.shadow_appends
                                    if aggregator is not None else 0)),
                (EV_DEMOTION, c["lss_demotions_total"]),
                (EV_THRESHOLD_SWITCH, c["lss_threshold_switches_total"]),
                (EV_AUDIT_VIOLATION, c["lss_audit_violations_total"])):
            if count:
                events[type_] = count
        snap["events"] = events
        snap["events_spilled"] = self.tracer.spilled
        snap["timeline_rows"] = len(self.timeline)
        snap["final"] = self.timeline.final()
        return snap
