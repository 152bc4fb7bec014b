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


# Append kinds for traffic accounting.
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
                                       sla_mode=cfg.sla_mode,
                                       obs=store.obs, owner_gid=gid,
                                       owner_name=spec.name)
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

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append_user(self, lba: int, now_us: int) -> int:
        seg = self._ensure_open_segment()
        loc = self.store.pool.append_block(seg, lba)
        flush = self.buffer.append((APPEND_USER, lba), now_us)
        if flush is not None:
            self._account_flush(flush)
        self._maybe_seal()
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
        flush = self.buffer.append((APPEND_SHADOW, lba), now_us)
        self.segment_shadow_bytes += self.store.config.chunk.block_bytes
        if flush is not None:
            self._account_flush(flush)
        self._maybe_seal()

    def append_user_run(self, lbas, lba_list: list[int],
                        ts_list: list[int], start_seq: int):
        """Batched equivalent of calling :meth:`append_user` per block.

        ``lbas`` is the int64 array of the run, ``lba_list``/``ts_list``
        its pre-converted Python lists (token tuples want plain ints).
        Block ``i`` of the run behaves as if ``store.user_seq`` were
        ``start_seq + i`` (segment created/sealed stamps).  The caller —
        the batched replay engine — guarantees that no GC trigger and no
        SLA deadline can occur inside the run, which is what makes the
        deferred bookkeeping bit-identical to the scalar path.

        Returns the int64 array of encoded locations.
        """
        return self._append_run(APPEND_USER, lbas, lba_list, ts_list,
                                start_seq, 1)

    def append_gc_run(self, lbas, lba_list: list[int],
                      now_us: int) -> np.ndarray:
        """Append one GC-migration run; returns the encoded locations.

        GC migrations happen at one instant of both clocks — ``now_us``
        and ``store.user_seq`` are constant across the run — so segment
        created/sealed stamps and buffer timers need no per-block
        stepping.  The caller (:class:`~repro.lss.gc.GarbageCollector`)
        guarantees nothing can interleave inside the run.
        """
        return self._append_run(APPEND_GC, lbas, lba_list,
                                [now_us] * len(lba_list),
                                self.store.user_seq, 0)

    def _append_run(self, kind: int, lbas, lba_list: list[int],
                    ts_list: list[int], start_seq: int, seq_step: int):
        """Append a run of data blocks; block ``i`` sees the logical
        clock at ``start_seq + seq_step * i``."""
        pool = self.store.pool
        sb = pool.segment_blocks
        fast = self.store._fast_full and not self.store.flush_listeners
        n = len(lba_list)
        locs = np.empty(n, dtype=np.int64)
        done = 0
        while done < n:
            if self.open_seg is None:
                self.open_seg = pool.allocate(
                    self.gid, start_seq + seq_step * done)
                self.segment_shadow_bytes = 0
            seg = self.open_seg
            take = min(n - done, sb - int(pool.fill[seg]))
            if not fast:
                # A materialized flush is accounted against the segment's
                # fill pointer (flush listeners derive the chunk's device
                # address from it), so the pointer must not run ahead of
                # the open chunk.
                take = min(take, self.buffer.free_slots)
            slot0 = pool.append_many(seg, lbas[done:done + take])
            base = seg * sb + slot0
            locs[done:done + take] = np.arange(base, base + take,
                                               dtype=np.int64)
            self._append_run_tokens(kind, lba_list[done:done + take],
                                    ts_list[done:done + take], fast)
            done += take
            if pool.fill[seg] == sb:
                pool.seal(seg, start_seq + seq_step * (done - 1))
                self.store.policy.on_segment_sealed(self.gid, seg)
                self.open_seg = None
        return locs

    def _append_run_tokens(self, kind: int, lba_slice: list[int],
                           ts_slice: list[int], fast: bool) -> None:
        """Feed one segment-bounded run portion into the coalescing
        buffer and account its FULL flushes.

        With ``fast`` (no per-flush consumer: base ``on_chunk_flush``,
        observability off or batch-capable, no flush listeners) the
        flushes are counted, not materialized; the traffic, RAID and
        bulk-obs updates below are exactly what per-flush
        :meth:`_account_flush` calls would produce for all-FULL flushes.
        Otherwise each ChunkFlush goes through the full accounting path.
        """
        buf = self.buffer
        if not fast:
            for flush in buf.append_run(kind, lba_slice, ts_slice):
                self._account_flush(flush)
            return
        p = buf.pending_blocks
        pend = buf.pending_tokens \
            if p and p + len(lba_slice) >= buf.chunk_blocks else ()
        nf, new_flushed = buf.append_run_counted(kind, lba_slice, ts_slice)
        if not nf:
            return
        t = self.traffic
        fu = fg = fs = 0
        for k, _lba in pend:
            if k == APPEND_USER:
                fu += 1
            elif k == APPEND_GC:
                fg += 1
            else:
                fs += 1
        if kind == APPEND_USER:
            fu += new_flushed
        else:
            fg += new_flushed
        t.user_blocks += fu
        t.gc_blocks += fg
        t.shadow_blocks += fs
        t.chunk_flushes += nf
        if self._shadow_mark and self.store._obs_on:
            # The first FULL flush is the lazy append of the shadowed
            # backlog; it fired at the stamp of the token that filled it.
            self.store.obs.on_lazy_append(
                self.gid, min(self._shadow_mark, buf.chunk_blocks),
                ts_slice[buf.chunk_blocks - p - 1])
        self._shadow_mark = 0
        self.store.stats.raid.add_chunk_ios(nf)
        self.store.policy.on_full_flush_run(self.gid, nf, pend)
        if self.store._obs_on:
            self.store.obs.on_full_flush_bulk(
                self.gid, self.spec.name, nf, buf.chunk_blocks,
                ts_slice[-1])

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def poll_deadline(self, now_us: int) -> ChunkFlush | None:
        """Emit a padded DEADLINE flush if the SLA window expired."""
        flush = self.buffer.poll(now_us)
        if flush is not None:
            self._pad_segment(flush)
            self._account_flush(flush)
            self._maybe_seal()
        return flush

    def fire_deadline_fast(self, now_us: int) -> None:
        """Deadline flush without materializing the :class:`ChunkFlush`.

        Only valid under the store's fast-flush conditions (base
        ``on_chunk_flush``, observability off or batch-capable, no flush
        listeners) with the deadline already checked as due — the counter
        and obs updates below are exactly what :meth:`poll_deadline`
        would produce then.
        """
        buf = self.buffer
        tokens = buf._tokens
        data = len(tokens)
        pad = buf.chunk_blocks - data
        t = self.traffic
        fu = fg = fs = 0
        for k, _lba in tokens:
            if k == APPEND_USER:
                fu += 1
            elif k == APPEND_GC:
                fg += 1
            else:
                fs += 1
        t.user_blocks += fu
        t.gc_blocks += fg
        t.shadow_blocks += fs
        t.padding_blocks += pad
        t.chunk_flushes += 1
        t.deadline_flushes += 1
        tokens.clear()
        buf._timer_start_us = None
        buf._heap_entry_us = None
        if pad and self.open_seg is not None:
            self.store.pool.append_padding(self.open_seg, pad)
        self._shadow_mark = 0
        self.store.stats.raid.add_chunks(1)
        if self.store._obs_on:
            self.store.obs.on_deadline_flush(self.gid, self.spec.name,
                                             data, pad, now_us)
        self._maybe_seal()

    def force_flush(self, now_us: int) -> ChunkFlush | None:
        flush = self.buffer.force_flush(now_us)
        if flush is not None:
            self._pad_segment(flush)
            self._account_flush(flush)
            self._maybe_seal()
        return flush

    def _pad_segment(self, flush: ChunkFlush) -> None:
        if flush.padding_blocks and self.open_seg is not None:
            self.store.pool.append_padding(self.open_seg,
                                           flush.padding_blocks)

    def _account_flush(self, flush: ChunkFlush) -> None:
        t = self.traffic
        for kind, _lba in flush.tokens:
            if kind == APPEND_USER:
                t.user_blocks += 1
            elif kind == APPEND_GC:
                t.gc_blocks += 1
            else:
                t.shadow_blocks += 1
        t.padding_blocks += flush.padding_blocks
        t.chunk_flushes += 1
        if flush.reason is FlushReason.DEADLINE:
            t.deadline_flushes += 1
        elif flush.reason is FlushReason.FORCED:
            t.forced_flushes += 1
        if self._shadow_mark and self.store._obs_on:
            # Pending blocks below the watermark already had substitutes
            # persisted elsewhere; this flush is their lazy append (§3.3).
            self.store.obs.on_lazy_append(
                self.gid, min(self._shadow_mark, flush.data_blocks),
                flush.time_us)
        self._shadow_mark = 0
        self.store.on_chunk_flush(self, flush)

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
