"""Groups: the placement-visible streams of the log.

A group owns one open segment and one open (coalescing) chunk at a time
(paper §3.1).  User-facing groups flush chunks under the SLA window and pad;
GC-facing groups write in bulk and only flush full chunks.  The open chunk
counts its pending blocks per append kind, so the per-group traffic
breakdown of Fig 3 falls out of the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.array.coalescing import (APPEND_GC, APPEND_SHADOW, APPEND_USER,
                                    ChunkFlush, CoalescingBuffer,
                                    FlushReason)
from repro.lss.config import LSSConfig
from repro.lss.stats import GroupTraffic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lss.store import LogStructuredStore


class GroupKind(Enum):
    USER = "user"   # receives user writes; SLA window applies
    GC = "gc"       # receives GC rewrites; bulk writes, no SLA padding
    MIXED = "mixed"  # receives both (DAC/MiDA style); SLA window applies


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """Declarative description of one group, provided by the policy."""

    name: str
    kind: GroupKind


class Group:
    """Runtime state of one group inside a store.

    A group keeps no reference to its store: each method that touches the
    store's pool, clocks, stats or events takes it as ``store``, so the
    store owns its groups without a reference cycle and a finished store
    is freed as soon as its last reference goes.
    """

    __slots__ = ("gid", "spec", "buffer", "open_seg", "traffic",
                 "_shadow_mark", "segment_shadow_bytes")

    def __init__(self, gid: int, spec: GroupSpec, cfg: LSSConfig) -> None:
        self.gid = gid
        self.spec = spec
        window = (cfg.coalesce_window_us
                  if spec.kind in (GroupKind.USER, GroupKind.MIXED) else None)
        self.buffer = CoalescingBuffer(cfg.chunk.chunk_blocks, window)
        self.open_seg: int | None = None
        self.traffic = GroupTraffic(name=spec.name, kind=spec.kind.value)
        #: The oldest _shadow_mark pending blocks already have substitutes
        #: persisted elsewhere (cross-group aggregation watermark, §3.3).
        self._shadow_mark = 0
        #: Blocks shadow-appended into the current open segment; compared
        #: against the group's average padding size by the aggregation
        #: stop-condition (Eq. 1 context).
        self.segment_shadow_bytes = 0

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------
    def _ensure_open_segment(self, store: "LogStructuredStore") -> int:
        if self.open_seg is None:
            self.open_seg = store.pool.allocate(self.gid, store.user_seq)
            self.segment_shadow_bytes = 0
        return self.open_seg

    def _maybe_seal(self, store: "LogStructuredStore") -> None:
        seg = self.open_seg
        pool = store.pool
        if seg is not None and pool.fill[seg] == pool.segment_blocks:
            pool.seal(seg, store.user_seq)
            for fn in store.events.segment_sealed:
                fn(self.gid, seg)
            self.open_seg = None

    def _queue_run(self, store: "LogStructuredStore", kind: int, n: int,
                   now_us: int) -> None:
        """Queue a run of ``n`` ``kind`` blocks, all at ``now_us``, whose
        slots were just taken in the open segment: flush the chunks it
        fills (one FULL record), then seal the segment if it is full —
        which takes a flush, as segments are whole chunks and chunks
        start at chunk boundaries."""
        buf = self.buffer
        nf, drained = buf.append_run(kind, n, now_us)
        # The store ticks only from its due time on: keep that at or
        # below the deadline the run armed.
        dl = buf.deadline_us
        if dl is not None and dl < store.due_us:
            store.due_us = dl
        if nf:
            self._flush(store, FlushReason.FULL, drained, now_us, nf, kind)
            self._maybe_seal(store)

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def reserve_user(self, store: "LogStructuredStore", n: int,
                     now_us: int) -> range:
        """Everything a run of ``n`` user appends does that the next
        block, the next tick or a flush consumer can observe: take ``n``
        consecutive slots (open a segment if needed), queue the blocks in
        the open chunk, flush the chunk and seal the segment if the run
        filled them.  A single block is a run of one.  Returns the slots'
        encoded locations, in order; booking the LBAs into them
        (``SegmentPool.fill_slot`` / ``fill_slots``) is the caller's, and
        may wait until something reads the slot planes — the next GC run
        at the latest.

        The blocks share ``now_us``, and a segment the call opens or seals
        is stamped with ``store.user_seq`` as it stands.  The state equals
        ``n`` single-block calls as long as only the run's last
        block may fill the open chunk (that is where its FULL flush and
        the seal fire) and ``store.user_seq`` is that block's; the replay
        loop ends every run there, and opens segments with runs of one.
        """
        seg = self.open_seg
        if seg is None:
            seg = self._ensure_open_segment(store)
        loc = store.pool.reserve_slot(seg, n)
        self._queue_run(store, APPEND_USER, n, now_us)
        return range(loc, loc + n)

    def append_user(self, store: "LogStructuredStore", lba: int,
                    now_us: int) -> int:
        loc = self.reserve_user(store, 1, now_us).start
        store.pool.fill_slot(loc, lba)
        return loc

    def append_shadow(self, store: "LogStructuredStore", n: int,
                      now_us: int) -> None:
        """Persist substitute copies of ``n`` hot pending blocks in this
        group's open chunk (shadow append, §3.3).

        The substitutes are accounted as written traffic but their slots
        are dead on arrival: the canonical copies remain the (pending)
        originals in the hot group, which the lazy append persists.  The
        blocks go in as one run per chunk they fill, so the state equals
        ``n`` single-block appends.
        """
        pool = store.pool
        block_bytes = store.config.chunk.block_bytes
        while n:
            seg = self._ensure_open_segment(store)
            take = min(n, self.buffer.free_slots)
            pool.append_padding(seg, take)  # dead slots, real writes
            self.segment_shadow_bytes += take * block_bytes
            self._queue_run(store, APPEND_SHADOW, take, now_us)
            n -= take

    # pinned by the frozen `bench/` harness — no caller
    def append_user_run(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    def append_gc_run(self, store: "LogStructuredStore", lbas: np.ndarray,
                      now_us: int) -> np.ndarray:
        """Append one GC-migration run; returns the encoded locations.

        GC migrations happen at one instant of both clocks — ``now_us``
        and ``store.user_seq`` are constant across the run — so segment
        created/sealed stamps and buffer timers need no per-block
        stepping.  The caller (:class:`~repro.lss.gc.GarbageCollector`)
        guarantees nothing can interleave inside the run.
        """
        pool = store.pool
        sb = pool.segment_blocks
        n = int(lbas.shape[0])
        locs = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            seg = self._ensure_open_segment(store)
            take = min(n - done, sb - pool.fill[seg])
            base = seg * sb + pool.append_many(seg, lbas[done:done + take])
            locs[done:done + take] = np.arange(base, base + take,
                                               dtype=np.int64)
            self._queue_run(store, APPEND_GC, take, now_us)
            done += take
        return locs

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def poll_deadline(self, store: "LogStructuredStore",
                      now_us: int) -> None:
        """Emit a padded DEADLINE flush if the SLA window expired."""
        self._padded_flush(store, FlushReason.DEADLINE,
                           self.buffer.poll(now_us), now_us)

    def force_flush(self, store: "LogStructuredStore", now_us: int) -> None:
        """Emit a padded FORCED flush of whatever is pending."""
        self._padded_flush(store, FlushReason.FORCED,
                           self.buffer.force_flush(), now_us)

    def _padded_flush(self, store: "LogStructuredStore",
                      reason: FlushReason, drained, now_us: int) -> None:
        if drained is not None:
            self._flush(store, reason, drained, now_us)
            self._maybe_seal(store)

    def _flush(self, store: "LogStructuredStore", reason: FlushReason,
               drained: list[int], time_us: int, count: int = 1,
               run_kind: int = APPEND_USER) -> None:
        """Book ``count`` chunk flushes: the one place the group's
        traffic, the segment's padding, the store's padded-flush,
        lazy-append and RAID tallies and the :class:`ChunkFlush` record
        an observer sees are derived.  The record is built only when
        some observer overrides ``chunk_flush``; then
        :meth:`LogStructuredStore.on_chunk_flush` books its RAID chunks
        and hands every listener the same one.

        The chunks carried the ``drained`` per-kind counts.  FULL chunks
        are full: what the drained blocks leave of them are ``run_kind``
        blocks an append run pushed straight through.  A padded flush
        pads what they leave of its one chunk.
        """
        total = count * self.buffer.chunk_blocks
        pending = drained[0] + drained[1] + drained[2]
        stats = store.stats
        if reason is FlushReason.FULL:
            drained[run_kind] += total - pending
            padding = 0
        else:
            padding = total - pending
            stats.padded_flushes[padding] += 1
        user, gc, shadow = drained
        t = self.traffic
        t.user_blocks += user
        t.gc_blocks += gc
        t.shadow_blocks += shadow
        t.padding_blocks += padding
        t.chunk_flushes += count
        if reason is FlushReason.DEADLINE:
            t.deadline_flushes += count
        elif reason is FlushReason.FORCED:
            t.forced_flushes += count
        seg = self.open_seg
        if padding and seg is not None:
            store.pool.append_padding(seg, padding)
        # Pending blocks below the watermark already had substitutes
        # persisted elsewhere; the first chunk is their lazy append (§3.3).
        lazy = min(self._shadow_mark, pending)
        if lazy:
            stats.lazy_appends += 1
            stats.lazy_blocks += lazy
        self._shadow_mark = 0
        if not store.events.chunk_flush:
            stats.raid.add_chunk_ios(count)
            return
        start = -1
        if seg is not None:
            pool = store.pool
            # The chunks end where the still-pending blocks begin, and
            # those end at the segment's fill pointer.
            start = seg * pool.segment_blocks + pool.fill[seg] \
                - self.buffer.pending_blocks - total
        store.on_chunk_flush(self, ChunkFlush(reason, count, user, gc,
                                              shadow, padding, time_us,
                                              lazy, start))

    # ------------------------------------------------------------------
    # cross-group aggregation support
    # ------------------------------------------------------------------
    @property
    def unshadowed_pending(self) -> int:
        """Pending blocks that do not yet have a substitute elsewhere."""
        return self.buffer.pending_blocks - self._shadow_mark

    def mark_all_shadowed(self, now_us: int) -> None:
        """Record that every pending block now has a substitute, and restart
        the aggregation timer (the original chunk keeps its blocks)."""
        self._shadow_mark = self.buffer.pending_blocks
        self.buffer.reset_timer(now_us)

    def mark_partially_shadowed(self, count: int, now_us: int) -> None:
        """Advance the shadow watermark by ``count`` pending blocks; if the
        whole backlog is now substituted, restart the aggregation timer."""
        self._shadow_mark = min(self._shadow_mark + count,
                                self.buffer.pending_blocks)
        if self._shadow_mark == self.buffer.pending_blocks:
            self.buffer.reset_timer(now_us)
