"""The recorder: the hook surface every instrumented code path calls.

:class:`NullRecorder` defines the full hook vocabulary as no-ops and is the
default everywhere (the module-level :data:`NULL_RECORDER` singleton).
Hooks are called unguarded: together they run about 0.2 times per user
block (``test_obs_hook_calls_per_user_block_bounded``), so an inert
method call costs nothing measurable.
:class:`ObsRecorder` implements the hooks for real: it feeds a
:class:`~repro.obs.metrics.MetricsRegistry`, emits typed events into an
:class:`~repro.obs.events.EventTracer`, and samples a WA/padding/GC
time-series every ``sample_every_blocks`` user blocks.

The recorder deliberately imports nothing from the simulator layers it
observes (``lss``/``array``/``core``); hooks receive plain values or duck-
typed objects (a ``ChunkFlush``, a ``StoreStats``), which keeps the import
graph acyclic — the simulator imports ``repro.obs``, never the reverse.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.obs.events import (
    EV_AUDIT_VIOLATION,
    EV_CHUNK_FLUSH,
    EV_CHUNK_FLUSH_BULK,
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

#: Column order of the time-series rows collected by :class:`ObsRecorder`
#: (and of the CSV written by
#: :func:`repro.obs.exporters.write_timeseries_csv`).
SERIES_COLUMNS: tuple[str, ...] = (
    "time_us", "user_blocks", "flash_blocks", "gc_blocks", "padding_blocks",
    "shadow_blocks", "write_amplification", "padding_ratio", "gc_ratio",
    "gc_passes",
)

#: What :meth:`NullRecorder.next_sample_seq` answers for an observer that
#: never needs the store settled.
NO_SAMPLE: int = sys.maxsize


class NullRecorder:
    """No-op recorder; every hook exists and does nothing."""

    enabled = False

    # -- lifecycle ------------------------------------------------------
    def bind_store(self, store: Any) -> None:
        """Called once by the store that owns this recorder."""

    def on_finalize(self, stats: Any) -> None:
        """End of replay: the store flushed every pending chunk."""

    def next_sample_seq(self) -> int:
        """The user-block count at which this recorder next reads the
        store (a series or timeline row).  The replay loop settles
        exactly there, so every row equals a per-block replay's."""
        return NO_SAMPLE

    # -- hot-path hooks -------------------------------------------------
    def on_user_write_bulk(self, count: int, last_lba: int,
                           now_us: int) -> None:
        """``count >= 1`` user block writes were accepted (one from
        ``write_block``, a settled run from the replay loop); the last
        one wrote ``last_lba`` at ``now_us``."""

    def on_read_bulk(self, count: int, now_us: int) -> None:
        """``count`` read requests were observed."""

    def on_chunk_flush(self, gid: int, name: str, flush: Any) -> None:
        """Group ``gid`` wrote ``flush.count`` chunks (a
        :class:`ChunkFlush`; ``count > 1`` is a run of FULL flushes).
        ``flush.lazy_blocks`` of them already had substitutes persisted
        elsewhere (§3.3's lazy append)."""

    def on_gc_pass(self, victim_seg: int, group_id: int, valid_blocks: int,
                   now_us: int) -> None:
        """GC cleaned one victim segment."""

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
    """Live recorder: metrics registry + event tracer + time-series.

    ``store.replay`` reports user writes once per settle, and settles
    wherever :meth:`next_sample_seq` says a row is due, so the metrics
    registry, the series rows, the timeline rows and the event stream
    all equal a per-block replay's (``tests/lss/test_replay_loop.py``
    compares them).

    Args:
        sample_every_blocks: append one time-series row (and one sampled
            ``user_write`` marker event) every N accepted user blocks.
        event_capacity: in-memory event buffer size.
        spill_path: optional JSONL file full buffers are appended to.
        trace_events: record a run of N FULL flushes as N ``chunk_flush``
            events instead of one ``chunk_flush_bulk`` record.
        event_sample_every: ratio-sample the stored events (per-type
            counts stay exact); forwarded to :class:`EventTracer`.
        timeline: optional :class:`~repro.obs.timeline.ReplayTimeline`
            to drive from this recorder's hooks (bound to the store and
            finalized alongside the recorder).
    """

    enabled = True

    def __init__(self, sample_every_blocks: int = 1024,
                 event_capacity: int = 65_536,
                 spill_path: str | None = None,
                 trace_events: bool = False,
                 event_sample_every: int = 1,
                 timeline: Any = None) -> None:
        if sample_every_blocks < 1:
            raise ValueError("sample_every_blocks must be >= 1")
        self.sample_every_blocks = sample_every_blocks
        self.trace_events = trace_events
        self.timeline = timeline
        self.registry = MetricsRegistry()
        self.tracer = EventTracer(event_capacity, spill_path=spill_path,
                                  sample_every=event_sample_every)
        self.series: list[tuple] = []
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
    # lifecycle
    # ------------------------------------------------------------------
    def bind_store(self, store: Any) -> None:
        self._store = store
        g = self.registry.gauge("lss_logical_blocks",
                                "configured logical address space")
        g.set(store.config.logical_blocks)
        if self.timeline is not None:
            self.timeline.bind(store)

    def on_finalize(self, stats: Any) -> None:
        # Always close the series with an exact final row: exporters and
        # tests rely on the last row matching StoreStats to the bit.
        now_us = getattr(self._store, "now_us", 0)
        self._sample_row(now_us, stats)
        self.gauge("lss_write_amplification", stats.write_amplification())
        self.gauge("lss_padding_traffic_ratio", stats.padding_traffic_ratio())
        self.gauge("lss_gc_traffic_ratio", stats.gc_traffic_ratio())
        if self.timeline is not None:
            self.timeline.finalize(now_us)

    def next_sample_seq(self) -> int:
        se = self.sample_every_blocks
        seq = (self._user_blocks.value // se + 1) * se
        if self.timeline is not None:
            seq = min(seq, self.timeline.next_sample_seq())
        return seq

    # ------------------------------------------------------------------
    # hot-path hooks
    # ------------------------------------------------------------------
    def on_user_write_bulk(self, count: int, last_lba: int,
                           now_us: int) -> None:
        ub = self._user_blocks
        ub.value += count
        if ub.value % self.sample_every_blocks == 0:
            # The store settled exactly on the boundary: the per-block
            # row, with one sampled user_write marker event.
            self._sample_row(now_us, self._store.stats)
            self.tracer.emit(EV_USER_WRITE, now_us, lba=last_lba,
                             user_blocks=ub.value)
        if self.timeline is not None:
            self.timeline.maybe_sample(now_us)

    def on_read_bulk(self, count: int, now_us: int) -> None:
        self._reads.value += count

    def on_chunk_flush(self, gid: int, name: str, flush: Any) -> None:
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
        chunk_event = dict(group=gid, name=name, reason=reason,
                           data_blocks=per_chunk, padding_blocks=padding)
        aggregate = count > 1 and not self.trace_events
        if aggregate:
            emit(EV_CHUNK_FLUSH_BULK, now_us, group=gid, name=name,
                 flushes=count, data_blocks=data)
        else:
            emit(EV_CHUNK_FLUSH, now_us, **chunk_event)
        if padding:
            self._padding_blocks.value += padding
            self._h_padding.observe(padding)
            emit(EV_PADDING, now_us, group=gid, name=name, blocks=padding,
                 reason=reason)
        if flush.lazy_blocks:
            # The run's first chunk carried the shadowed backlog.
            self._lazy_blocks.value += flush.lazy_blocks
            emit(EV_LAZY_APPEND, now_us, group=gid,
                 blocks=flush.lazy_blocks)
        if not aggregate:
            # Only a GC migration run flushes several chunks in one
            # record, all at one constant timestamp.
            for _ in range(count - 1):
                emit(EV_CHUNK_FLUSH, now_us, **chunk_event)

    def on_gc_pass(self, victim_seg: int, group_id: int, valid_blocks: int,
                   now_us: int) -> None:
        self._gc_passes.value += 1
        self._gc_migrated.value += valid_blocks
        self._h_victim.observe(valid_blocks)
        self.tracer.emit(EV_GC_PASS, now_us, victim=victim_seg,
                         group=group_id, valid_blocks=valid_blocks)

    def on_shadow_append(self, hot_gid: int, cold_gid: int, blocks: int,
                         now_us: int) -> None:
        self._shadow_blocks.value += blocks
        self.tracer.emit(EV_SHADOW_APPEND, now_us, hot_group=hot_gid,
                         cold_group=cold_gid, blocks=blocks)

    def on_demotion(self, lba: int, target_gid: int, score: int,
                    now_us: int) -> None:
        self._demotions.value += 1
        self.tracer.emit(EV_DEMOTION, now_us, lba=lba, group=target_gid,
                         score=score)

    def on_threshold_switch(self, threshold: float, mode: str, rounds: int,
                            now_us: int) -> None:
        self._threshold_switches.value += 1
        self.registry.gauge("lss_ghost_best_threshold",
                            "ghost-side winning threshold").set(threshold)
        self.tracer.emit(EV_THRESHOLD_SWITCH, now_us, threshold=threshold,
                         mode=mode, rounds=rounds)

    def on_audit_violation(self, invariant: str, detail: str,
                           now_us: int) -> None:
        self._audit_violations.value += 1
        self.tracer.emit(EV_AUDIT_VIOLATION, now_us, invariant=invariant,
                         detail=detail)

    # ------------------------------------------------------------------
    # generic escape hatches
    # ------------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def count(self, name: str, amount: float = 1) -> None:
        self.registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # time-series + snapshot
    # ------------------------------------------------------------------
    def _sample_row(self, now_us: int, stats: Any) -> None:
        self.series.append((
            int(now_us),
            int(stats.user_blocks_requested),
            int(stats.flash_blocks_written),
            int(stats.gc_blocks_written),
            int(stats.padding_blocks_written),
            int(stats.shadow_blocks_written),
            float(stats.write_amplification()),
            float(stats.padding_traffic_ratio()),
            float(stats.gc_traffic_ratio()),
            int(stats.gc_passes),
        ))

    def snapshot(self) -> dict:
        """Plain-dict summary: metrics, event counts, final series row.

        Everything is picklable, so :func:`replay_volume` can attach it to
        a :class:`VolumeResult` even across worker processes.
        """
        snap = self.registry.snapshot()
        snap["events"] = dict(self.tracer.counts)
        snap["events_dropped"] = self.tracer.dropped
        snap["events_spilled"] = self.tracer.spilled
        snap["events_sampled_out"] = self.tracer.sampled_out
        snap["series_rows"] = len(self.series)
        snap["final"] = (dict(zip(SERIES_COLUMNS, self.series[-1]))
                         if self.series else None)
        if self.timeline is not None:
            snap["timeline_rows"] = len(self.timeline)
        return snap
