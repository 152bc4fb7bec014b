"""The recorder: a store observer that turns what it hears into
metrics, events and one time series.

:class:`ObsRecorder` is a :class:`~repro.common.observer.StoreObserver`
like every other listener.  A store built without one holds
``obs = None``, and nothing else calls a recorder: the policy's and the
auditor's decisions (``shadow_appended``, ``demoted``,
``threshold_switched``, ``audited``) reach it as store events.  It feeds
a :class:`~repro.obs.metrics.MetricsRegistry`, emits typed events into
an :class:`~repro.obs.events.EventTracer`, and samples its one time
series, a :class:`~repro.obs.timeline.ReplayTimeline`, every
``timeline_every`` user blocks.

An observer reads a store count rather than re-counting an event: what
:class:`~repro.lss.stats.StoreStats` already counts — chunk flushes by
reason, flushed and padding blocks, padded flushes by size, lazy
appends, GC victims by valid blocks — becomes the recorder's counters,
histograms and event counts when it finalizes or snapshots, so the
recorder hears no ``chunk_flush`` and no ``segment_reclaimed``.  Only a
tracer with a ``spill_path`` hears those two events, to log their
records: the recorder's :meth:`~ObsRecorder.event_log` hands it to the
store, which subscribes it after its own observers.  What is left runs about 0.05 times per user block
(``test_obs_hook_calls_per_user_block_bounded``).

The recorder deliberately imports nothing from the simulator layers it
observes (``lss``/``array``/``core``); hooks receive plain values or duck-
typed objects (a ``ChunkFlush``, a ``StoreStats``), which keeps the import
graph acyclic — the simulator imports ``repro.obs``, never the reverse.
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
from repro.obs.metrics import BLOCK_BUCKETS, MetricsRegistry
from repro.obs.timeline import TIMELINE_EVERY, ReplayTimeline


class ObsRecorder(StoreObserver):
    """Live recorder: metrics registry + event tracer + timeline.

    ``store.replay`` reports user writes once per settle, and settles
    wherever :meth:`next_sample_seq` says a row is due, so the metrics
    registry, the timeline rows and the event stream all equal a
    per-block replay's (``tests/lss/test_replay_loop.py`` compares them).
    The counters, histograms and event counts the store's
    :class:`~repro.lss.stats.StoreStats` determines are set from it at
    :meth:`finalize` and :meth:`snapshot` and cover the store's whole
    life.

    Args:
        timeline_every: append one timeline row (and one ``user_write``
            marker event) every N accepted user blocks.
        spill_path: optional JSONL file every event is appended to;
            without one the tracer only counts events.
    """

    __slots__ = ("timeline", "registry", "tracer", "_store", "_user_blocks",
                 "_reads", "_flush_full", "_flush_deadline", "_flush_forced",
                 "_data_blocks", "_padding_blocks", "_gc_passes",
                 "_gc_migrated", "_shadow_blocks", "_lazy_blocks",
                 "_demotions", "_threshold_switches", "_audit_violations",
                 "_h_fill", "_h_padding", "_h_victim")

    def __init__(self, timeline_every: int = TIMELINE_EVERY,
                 spill_path: str | None = None) -> None:
        self.timeline = ReplayTimeline(timeline_every)
        self.registry = MetricsRegistry()
        self.tracer = EventTracer(spill_path=spill_path)
        self._store: Any = None

        reg = self.registry
        self._user_blocks = reg.counter(
            "lss_user_blocks_total", "user block writes accepted")
        self._reads = reg.counter(
            "lss_read_requests_total", "read requests observed")
        self._flush_full = reg.counter(
            "lss_chunk_flushes_full_total", "chunk flushes (filled)")
        self._flush_deadline = reg.counter(
            "lss_chunk_flushes_deadline_total",
            "chunk flushes (SLA deadline, zero-padded)")
        self._flush_forced = reg.counter(
            "lss_chunk_flushes_forced_total",
            "chunk flushes (forced at seal/shutdown)")
        self._data_blocks = reg.counter(
            "lss_flushed_data_blocks_total", "data blocks flushed to chunks")
        self._padding_blocks = reg.counter(
            "lss_padding_blocks_total", "zero-padding blocks written")
        self._gc_passes = reg.counter(
            "lss_gc_passes_total", "GC victim segments cleaned")
        self._gc_migrated = reg.counter(
            "lss_gc_blocks_migrated_total", "valid blocks migrated by GC")
        self._shadow_blocks = reg.counter(
            "lss_shadow_append_blocks_total",
            "substitute blocks written by cross-group aggregation")
        self._lazy_blocks = reg.counter(
            "lss_lazy_append_blocks_total",
            "previously-shadowed blocks persisted in place")
        self._demotions = reg.counter(
            "lss_demotions_total", "user writes routed by proactive demotion")
        self._threshold_switches = reg.counter(
            "lss_threshold_switches_total", "threshold adaptation rounds")
        self._audit_violations = reg.counter(
            "lss_audit_violations_total", "invariant audit failures")
        self._h_fill = reg.histogram(
            "lss_chunk_fill_blocks", BLOCK_BUCKETS,
            "data blocks per flushed chunk")
        self._h_padding = reg.histogram(
            "lss_chunk_padding_blocks", BLOCK_BUCKETS,
            "padding blocks per padded flush")
        self._h_victim = reg.histogram(
            "lss_gc_victim_valid_blocks", BLOCK_BUCKETS,
            "valid blocks per GC victim segment")

    # ------------------------------------------------------------------
    # store events
    # ------------------------------------------------------------------
    def bind(self, store: Any) -> None:
        self._store = store
        g = self.registry.gauge("lss_logical_blocks",
                                "configured logical address space")
        g.set(store.config.logical_blocks)
        self.timeline.bind(store)

    def event_log(self) -> EventTracer | None:
        """The observer that logs the store's flush and victim records
        (a spilling tracer), or ``None``; the store subscribes it after
        its own observers."""
        return self.tracer if self.tracer.spill_path is not None else None

    def finalize(self) -> None:
        self._read_store_counts()
        stats = self._store.stats
        gauge = self.registry.gauge
        gauge("lss_write_amplification").set(stats.write_amplification())
        gauge("lss_padding_traffic_ratio").set(
            stats.padding_traffic_ratio())
        gauge("lss_gc_traffic_ratio").set(stats.gc_traffic_ratio())
        # Always close the timeline with an exact final row: exporters
        # and tests rely on the last row matching StoreStats to the bit.
        self.timeline.finalize(self._store.now_us)

    def next_sample_seq(self) -> int:
        return self.timeline.next_sample_seq()

    def user_writes(self, lbas, locs, start_seq: int, now_us: int) -> None:
        ub = self._user_blocks
        ub.value += len(lbas)
        if ub.value >= self.timeline.next_sample_seq():
            # The store settled exactly on the boundary: the per-block
            # row, with one user_write marker event.
            self.timeline.sample(now_us)
            self.tracer.emit(EV_USER_WRITE, now_us, int(lbas[-1]),
                             ub.value)

    def reads(self, count: int, now_us: int) -> None:
        self._reads.value += count

    def _read_store_counts(self) -> dict[str, int]:
        """Set every counter and histogram the store's stats determine,
        and return the event counts they determine (the records a
        spilling tracer logs for chunk flushes and GC victims)."""
        if self._store is None:
            return {}
        stats = self._store.stats
        groups = stats.groups
        flushes = sum(g.chunk_flushes for g in groups)
        deadline = sum(g.deadline_flushes for g in groups)
        forced = sum(g.forced_flushes for g in groups)
        full = flushes - deadline - forced
        padding = stats.padding_blocks_written
        self._flush_full.value = full
        self._flush_deadline.value = deadline
        self._flush_forced.value = forced
        self._data_blocks.value = stats.flash_blocks_written - padding
        self._padding_blocks.value = padding
        self._lazy_blocks.value = stats.lazy_blocks
        self._gc_passes.value = stats.gc_segments_reclaimed
        self._gc_migrated.value = stats.gc_blocks_migrated
        # A padded flush of p blocks carried chunk_blocks - p data
        # blocks; a FULL chunk carried chunk_blocks.
        padded = list(enumerate(stats.padded_flushes))
        cb = self._store.config.chunk.chunk_blocks
        self._h_fill.set_tally(
            [(cb - p, n) for p, n in padded] + [(cb, full)])
        self._h_padding.set_tally(padded)
        self._h_victim.set_tally(enumerate(stats.victim_valid))
        return {EV_CHUNK_FLUSH: flushes, EV_PADDING: deadline + forced,
                EV_LAZY_APPEND: stats.lazy_appends,
                EV_GC_PASS: stats.gc_segments_reclaimed}

    # ------------------------------------------------------------------
    # decisions the policy and the auditor fire
    # ------------------------------------------------------------------
    def shadow_appended(self, hot_gid: int, cold_gid: int, blocks: int,
                        now_us: int) -> None:
        self._shadow_blocks.value += blocks
        self.tracer.emit(EV_SHADOW_APPEND, now_us, hot_gid, cold_gid, blocks)

    def demoted(self, lba: int, target_gid: int, score: int,
                now_us: int) -> None:
        self._demotions.value += 1
        self.tracer.emit(EV_DEMOTION, now_us, lba, target_gid, score)

    def threshold_switched(self, best_threshold: float, mode: str,
                           rounds: int, threshold: float,
                           now_us: int) -> None:
        self._threshold_switches.value += 1
        gauge = self.registry.gauge
        gauge("lss_ghost_best_threshold",
              "ghost-side winning threshold").set(best_threshold)
        self.tracer.emit(EV_THRESHOLD_SWITCH, now_us, best_threshold, mode,
                         rounds)
        gauge("adapt_threshold_blocks").set(threshold)

    def audited(self, invariant: str | None, detail: str,
                now_us: int) -> None:
        if invariant is None:
            self.registry.counter("lss_audits_total").inc()
            return
        self._audit_violations.value += 1
        self.tracer.emit(EV_AUDIT_VIOLATION, now_us, invariant, detail)

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict summary: metrics, event counts, final timeline row
        (JSON-safe: NaN is ``None``).

        Everything is picklable, so :func:`replay_volume` can attach it to
        a :class:`VolumeResult` even across worker processes.
        """
        events = dict(self.tracer.counts)
        for type_, count in self._read_store_counts().items():
            if count:
                events[type_] = count
        snap = self.registry.snapshot()
        snap["events"] = events
        snap["events_spilled"] = self.tracer.spilled
        snap["timeline_rows"] = len(self.timeline)
        snap["final"] = self.timeline.final()
        return snap
