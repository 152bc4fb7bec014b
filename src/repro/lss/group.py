"""Groups: the placement-visible streams of the log.

A group owns one open segment and one open (coalescing) chunk at a time
(paper §3.1).  User-facing groups flush chunks under the SLA window and pad;
GC-facing groups write in bulk and only flush full chunks.  Append kinds are
tracked per block so the per-group traffic breakdown of Fig 3 falls out of
the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.array.coalescing import ChunkFlush, CoalescingBuffer, FlushReason
from repro.lss.stats import GroupTraffic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lss.store import LogStructuredStore


class GroupKind(Enum):
    USER = "user"   # receives user writes; SLA window applies
    GC = "gc"       # receives GC rewrites; bulk writes, no SLA padding
    MIXED = "mixed"  # receives both (DAC/MiDA style); SLA window applies


@dataclass(frozen=True)
class GroupSpec:
    """Declarative description of one group, provided by the policy."""

    name: str
    kind: GroupKind


# Append kinds for traffic accounting (also the index of each kind's
# count in ``Group._flush``).
APPEND_USER = 0
APPEND_GC = 1
APPEND_SHADOW = 2


class Group:
    """Runtime state of one group inside a store."""

    def __init__(self, gid: int, spec: GroupSpec,
                 store: "LogStructuredStore") -> None:
        self.gid = gid
        self.spec = spec
        self.store = store
        cfg = store.config
        window = (cfg.coalesce_window_us
                  if spec.kind in (GroupKind.USER, GroupKind.MIXED) else None)
        self.buffer = CoalescingBuffer(cfg.chunk.chunk_blocks, window,
                                       sla_mode=cfg.sla_mode, owner_gid=gid)
        self.open_seg: int | None = None
        self.traffic = GroupTraffic(name=spec.name, kind=spec.kind.value)
        #: Tokens at index < _shadow_mark already have substitutes persisted
        #: elsewhere (cross-group aggregation watermark, §3.3).
        self._shadow_mark = 0
        #: Blocks shadow-appended into the current open segment; compared
        #: against the group's average padding size by the aggregation
        #: stop-condition (Eq. 1 context).
        self.segment_shadow_bytes = 0

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------
    def _ensure_open_segment(self) -> int:
        if self.open_seg is None:
            self.open_seg = self.store.pool.allocate(self.gid,
                                                     self.store.user_seq)
            self.segment_shadow_bytes = 0
        return self.open_seg

    def _maybe_seal(self) -> None:
        seg = self.open_seg
        if seg is not None and \
                self.store.pool.fill[seg] == self.store.pool.segment_blocks:
            self.store.pool.seal(seg, self.store.user_seq)
            self.store.policy.on_segment_sealed(self.gid, seg)
            self.open_seg = None

    def _queue_run(self, kind: int, lbas: list[int], now_us: int) -> None:
        """Queue a run of ``kind`` blocks, all at ``now_us``, whose slots
        were just taken in the open segment: flush the chunks it fills
        (one FULL record), then seal the segment if it is full — which
        takes a flush, as segments are whole chunks and chunks start at
        chunk boundaries."""
        buf = self.buffer
        nf, drained = buf.append_run(kind, lbas, now_us)
        if nf:
            self._flush(FlushReason.FULL, drained, now_us, nf, kind,
                        nf * buf.chunk_blocks - len(drained))
            self._maybe_seal()

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def reserve_user(self, lbas: list[int], now_us: int) -> range:
        """Everything a run of user appends does that the next block, the
        next tick or a flush consumer can observe: take ``len(lbas)``
        consecutive slots (open a segment if needed), queue the blocks in
        the open chunk, flush the chunk and seal the segment if the run
        filled them.  A single block is a run of one.  Returns the slots'
        encoded locations, in order; booking the LBAs into them
        (``SegmentPool.fill_slot`` / ``fill_slots``) is the caller's, and
        may wait until something reads the slot planes — the next GC run
        at the latest.

        The blocks share ``now_us``, and a segment the call opens or seals
        is stamped with ``store.user_seq`` as it stands.  The state equals
        ``len(lbas)`` single-block calls as long as only the run's last
        block may fill the open chunk (that is where its FULL flush and
        the seal fire) and ``store.user_seq`` is that block's; the replay
        loop ends every run there, and opens segments with runs of one.
        """
        seg = self._ensure_open_segment()
        loc = self.store.pool.reserve_slot(seg, len(lbas))
        self._queue_run(APPEND_USER, lbas, now_us)
        return range(loc, loc + len(lbas))

    def append_user(self, lba: int, now_us: int) -> int:
        loc = self.reserve_user([lba], now_us)[0]
        self.store.pool.fill_slot(loc, lba)
        return loc

    def append_shadow(self, lba: int, now_us: int) -> None:
        """Persist a substitute copy of a hot pending block in this group's
        open chunk (shadow append, §3.3).

        The substitute is accounted as written traffic but its slot is dead
        on arrival: the canonical copy remains the (pending) original in the
        hot group, which will be persisted by the lazy append.
        """
        seg = self._ensure_open_segment()
        self.store.pool.append_padding(seg, 1)  # dead slot, real write
        self.segment_shadow_bytes += self.store.config.chunk.block_bytes
        self._queue_run(APPEND_SHADOW, [lba], now_us)

    # pinned by the frozen `bench/` harness — no caller
    def append_user_run(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    def append_gc_run(self, lbas, lba_list: list[int],
                      now_us: int) -> np.ndarray:
        """Append one GC-migration run; returns the encoded locations.

        GC migrations happen at one instant of both clocks — ``now_us``
        and ``store.user_seq`` are constant across the run — so segment
        created/sealed stamps and buffer timers need no per-block
        stepping.  The caller (:class:`~repro.lss.gc.GarbageCollector`)
        guarantees nothing can interleave inside the run.
        """
        pool = self.store.pool
        sb = pool.segment_blocks
        n = len(lba_list)
        locs = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            seg = self._ensure_open_segment()
            take = min(n - done, sb - pool.fill[seg])
            base = seg * sb + pool.append_many(seg, lbas[done:done + take])
            locs[done:done + take] = np.arange(base, base + take,
                                               dtype=np.int64)
            self._queue_run(APPEND_GC, lba_list[done:done + take], now_us)
            done += take
        return locs

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def poll_deadline(self, now_us: int) -> ChunkFlush | None:
        """Emit a padded DEADLINE flush if the SLA window expired."""
        return self._padded_flush(FlushReason.DEADLINE,
                                  self.buffer.poll(now_us), now_us)

    def force_flush(self, now_us: int) -> ChunkFlush | None:
        """Emit a padded FORCED flush of whatever is pending."""
        return self._padded_flush(FlushReason.FORCED,
                                  self.buffer.force_flush(), now_us)

    def _padded_flush(self, reason: FlushReason, drained,
                      now_us: int) -> ChunkFlush | None:
        if drained is None:
            return None
        flush = self._flush(reason, drained, now_us)
        self._maybe_seal()
        return flush

    def _flush(self, reason: FlushReason, drained, time_us: int,
               count: int = 1, run_kind: int = APPEND_USER,
               run_blocks: int = 0) -> ChunkFlush:
        """Book ``count`` chunk flushes: the one place the group's
        traffic, the segment's padding and the :class:`ChunkFlush` record
        the rest of the system sees are derived.

        The chunks carried the ``drained`` buffer tokens plus
        ``run_blocks`` blocks of kind ``run_kind`` that an append run
        pushed straight through; whatever that leaves of ``count`` chunks
        is zero padding (none for FULL flushes, by construction).
        """
        kinds = list(map(itemgetter(0), drained))
        user = kinds.count(APPEND_USER)
        gc = kinds.count(APPEND_GC)
        blocks = [user, gc, len(kinds) - user - gc]  # indexed by kind
        blocks[run_kind] += run_blocks
        user, gc, shadow = blocks
        total = count * self.buffer.chunk_blocks
        padding = total - user - gc - shadow
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
        start = -1
        seg = self.open_seg
        if seg is not None:
            pool = self.store.pool
            if padding:
                pool.append_padding(seg, padding)
            # The chunks end where the still-pending blocks begin, and
            # those end at the segment's fill pointer.
            start = seg * pool.segment_blocks + pool.fill[seg] \
                - self.buffer.pending_blocks - total
        # Pending blocks below the watermark already had substitutes
        # persisted elsewhere; the first chunk is their lazy append (§3.3).
        flush = ChunkFlush(reason, count, user, gc, shadow, padding, time_us,
                           min(self._shadow_mark, len(drained)), start)
        self._shadow_mark = 0
        self.store.on_chunk_flush(self, flush)
        return flush

    # ------------------------------------------------------------------
    # cross-group aggregation support
    # ------------------------------------------------------------------
    @property
    def unshadowed_pending(self) -> tuple[tuple[int, int], ...]:
        """Pending tokens that do not yet have a substitute elsewhere."""
        return self.buffer.pending_tokens[self._shadow_mark:]

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
