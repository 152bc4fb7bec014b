"""The recorder: a store observer plus the hooks policies emit through.

:class:`NullRecorder` is the default everywhere (the module-level
:data:`NULL_RECORDER` singleton).  It overrides no store event
(:mod:`repro.common.observer`), so the store never calls it, and its
emitter hooks (``on_shadow_append``, ``on_demotion``, ...) are no-ops
that policies call unguarded.  Together the recorder's events and hooks
run about 0.2 times per user block
(``test_obs_hook_calls_per_user_block_bounded``).
:class:`ObsRecorder` implements them for real: it feeds a
:class:`~repro.obs.metrics.MetricsRegistry`, emits typed events into an
:class:`~repro.obs.events.EventTracer`, and samples its one time series,
a :class:`~repro.obs.timeline.ReplayTimeline`, every ``timeline_every``
user blocks.

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


class NullRecorder(StoreObserver):
    """No-op recorder: no store event, and every emitter hook exists and
    does nothing."""

    __slots__ = ()

    enabled = False

    # -- hooks policies and the auditor emit through --------------------
    def on_shadow_append(self, hot_gid: int, cold_gid: int, blocks: int,
                         now_us: int) -> None:
        """Cross-group aggregation persisted substitutes (§3.3)."""

    def on_demotion(self, lba: int, target_gid: int, score: int,
                    now_us: int) -> None:
        """Proactive demotion routed a user write into a GC group (§3.4)."""

    def on_threshold_switch(self, threshold: float, mode: str, rounds: int,
                            now_us: int) -> None:
        """The threshold ladder closed an adaptation round (§3.2)."""

    def on_audit_violation(self, invariant: str, detail: str,
                           now_us: int) -> None:
        """An :class:`~repro.validate.InvariantAuditor` check failed."""

    # -- generic escape hatches -----------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge (no-op when disabled)."""

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a named counter (no-op when disabled)."""

    def snapshot(self) -> dict | None:
        """Picklable summary of everything recorded (``None`` here)."""
        return None


#: Shared default recorder: one immutable no-op instance for the whole
#: process.
NULL_RECORDER = NullRecorder()


class ObsRecorder(NullRecorder):
    """Live recorder: metrics registry + event tracer + timeline.

    ``store.replay`` reports user writes once per settle, and settles
    wherever :meth:`next_sample_seq` says a row is due, so the metrics
    registry, the timeline rows and the event stream all equal a
    per-block replay's (``tests/lss/test_replay_loop.py`` compares them).

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

    enabled = True

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

    def finalize(self) -> None:
        stats = self._store.stats
        self.gauge("lss_write_amplification", stats.write_amplification())
        self.gauge("lss_padding_traffic_ratio", stats.padding_traffic_ratio())
        self.gauge("lss_gc_traffic_ratio", stats.gc_traffic_ratio())
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

    def chunk_flush(self, group: Any, flush: Any) -> None:
        gid = group.gid
        name = group.spec.name
        reason = flush.reason.value
        count = flush.count
        data = flush.data_blocks
        padding = flush.padding_blocks
        now_us = flush.time_us
        if reason == "full":
            self._flush_full.value += count
        elif reason == "deadline":
            self._flush_deadline.value += count
        else:
            self._flush_forced.value += count
        self._data_blocks.value += data
        # Only FULL flushes come in runs, so the chunks of a run are
        # equally full.
        per_chunk = data // count
        self._h_fill.observe_bulk(per_chunk, count)
        emit = self.tracer.emit
        emit(EV_CHUNK_FLUSH, now_us, gid, name, reason, per_chunk, padding)
        if padding:
            self._padding_blocks.value += padding
            self._h_padding.observe(padding)
            emit(EV_PADDING, now_us, gid, name, padding, reason)
        if flush.lazy_blocks:
            # The run's first chunk carried the shadowed backlog.
            self._lazy_blocks.value += flush.lazy_blocks
            emit(EV_LAZY_APPEND, now_us, gid, flush.lazy_blocks)
        # Only a GC migration run flushes several chunks in one record,
        # all at one constant timestamp.
        for _ in range(count - 1):
            emit(EV_CHUNK_FLUSH, now_us, gid, name, reason, per_chunk,
                 padding)

    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        self._gc_passes.value += 1
        self._gc_migrated.value += valid_blocks
        self._h_victim.observe(valid_blocks)
        self.tracer.emit(EV_GC_PASS, now_us, seg, group_id, valid_blocks)

    # ------------------------------------------------------------------
    # emitter hooks
    # ------------------------------------------------------------------

    def on_shadow_append(self, hot_gid: int, cold_gid: int, blocks: int,
                         now_us: int) -> None:
        self._shadow_blocks.value += blocks
        self.tracer.emit(EV_SHADOW_APPEND, now_us, hot_gid, cold_gid, blocks)

    def on_demotion(self, lba: int, target_gid: int, score: int,
                    now_us: int) -> None:
        self._demotions.value += 1
        self.tracer.emit(EV_DEMOTION, now_us, lba, target_gid, score)

    def on_threshold_switch(self, threshold: float, mode: str, rounds: int,
                            now_us: int) -> None:
        self._threshold_switches.value += 1
        self.registry.gauge("lss_ghost_best_threshold",
                            "ghost-side winning threshold").set(threshold)
        self.tracer.emit(EV_THRESHOLD_SWITCH, now_us, threshold, mode,
                         rounds)

    def on_audit_violation(self, invariant: str, detail: str,
                           now_us: int) -> None:
        self._audit_violations.value += 1
        self.tracer.emit(EV_AUDIT_VIOLATION, now_us, invariant, detail)

    # ------------------------------------------------------------------
    # generic escape hatches
    # ------------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def count(self, name: str, amount: float = 1) -> None:
        self.registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict summary: metrics, event counts, final timeline row
        (JSON-safe: NaN is ``None``).

        Everything is picklable, so :func:`replay_volume` can attach it to
        a :class:`VolumeResult` even across worker processes.
        """
        snap = self.registry.snapshot()
        snap["events"] = dict(self.tracer.counts)
        snap["events_spilled"] = self.tracer.spilled
        snap["timeline_rows"] = len(self.timeline)
        snap["final"] = self.timeline.final()
        return snap
