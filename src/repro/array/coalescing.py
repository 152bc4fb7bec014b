"""Chunk-coalescing buffer with the zero-padding SLA.

Every group in the LSS funnels its appended blocks through one open chunk.
A chunk is flushed to the array either when it fills (``FULL``) or when the
SLA coalescing window expires (``DEADLINE``, 100 µs in the paper's
Pangu-derived setting) — in which case the remainder of the chunk is
zero-padded.  GC-facing groups write in bulk and use ``window_us=None``:
they never pad on a deadline, matching the paper's Observation 2.

The window restarts on every append, so a chunk is padded once the stream
to its group pauses for a full window.  That is the semantics of the
paper's Fig 11, where traffic denser than the 100 µs window "eliminates
zero-padding across all schemes", and of §3.3's resettable "aggregation
timer".

The buffer keeps only how many blocks of each append kind are pending:
nothing above it reads a pending block's identity, and a flush books
per-kind totals, so counts are all the log layer needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from repro.common.errors import ConfigError

# Append kinds: the index of each kind's count in a buffer's ``pending``
# list and in the per-kind counts a drain returns.
APPEND_USER = 0
APPEND_GC = 1
APPEND_SHADOW = 2


class FlushReason(Enum):
    FULL = "full"           # chunk filled; no padding
    DEADLINE = "deadline"   # SLA expired; zero-padded
    FORCED = "forced"       # external flush (seal/shutdown); zero-padded


@dataclass(slots=True)
class ChunkFlush:
    """``count`` chunk writes one group issued to the array.

    The one shape in which every layer learns that chunks were flushed;
    the group that owns the buffer builds it from the drained per-kind
    counts.  A single flush is a run of one.  ``count > 1`` only
    for the FULL flushes one append run emits back to back, which occupy
    consecutive device addresses; the block counts are totals over the
    run and ``time_us`` is when its last chunk filled.

    Consumers share the record and must not write to it; it is left
    unfrozen only because it is built on the per-flush hot path, where
    a frozen dataclass costs four times as much to construct.
    """

    reason: FlushReason
    count: int
    user_blocks: int
    gc_blocks: int
    shadow_blocks: int
    padding_blocks: int
    time_us: int
    #: Blocks in the (first) chunk whose substitutes were already
    #: persisted elsewhere: this flush is their lazy append (§3.3).
    lazy_blocks: int = 0
    #: Array address of the first chunk's first block (-1: no segment).
    device_lba_start: int = -1

    @property
    def data_blocks(self) -> int:
        return self.user_blocks + self.gc_blocks + self.shadow_blocks

    @property
    def total_blocks(self) -> int:
        return self.data_blocks + self.padding_blocks


class CoalescingBuffer:
    """Open-chunk accumulator for one group: per-kind pending counts and
    the SLA timer.

    Every operation that flushes the chunk drains it and returns the
    drained per-kind counts (a ``[user, gc, shadow]`` list the caller
    now owns); what the flush means (padding, accounting) is the
    owner's business.

    Args:
        chunk_blocks: chunk capacity in blocks.
        window_us: SLA coalescing window; ``None`` disables deadline
            flushes (bulk/GC writers).
        owner_gid: identity stamped onto this buffer's entries in a
            shared deadline heap.
    """

    __slots__ = ("chunk_blocks", "window_us", "owner_gid",
                 "pending", "pending_blocks", "_timer_start_us", "_heap",
                 "_heap_entry_us")

    def __init__(self, chunk_blocks: int, window_us: int | None,
                 owner_gid: int = -1) -> None:
        if chunk_blocks < 1:
            raise ConfigError("chunk_blocks must be >= 1")
        if window_us is not None and window_us < 0:
            raise ConfigError("window_us must be >= 0 or None")
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        self.owner_gid = owner_gid
        #: Pending blocks per append kind, and their total.
        self.pending = [0, 0, 0]
        self.pending_blocks = 0
        self._timer_start_us: int | None = None
        # Lazy deadline-heap support (see bind_deadline_heap): the shared
        # min-heap of (deadline_us, owner_gid) entries and the smallest
        # entry this buffer currently has live in it.
        self._heap: list[tuple[int, int]] | None = None
        self._heap_entry_us: int | None = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        return self.chunk_blocks - self.pending_blocks

    @property
    def deadline_us(self) -> int | None:
        """Absolute time of the next SLA deadline, or ``None``."""
        if self.window_us is None or self._timer_start_us is None:
            return None
        return self._timer_start_us + self.window_us

    def reset_timer(self, now_us: int) -> None:
        """Restart the SLA window (used by shadow append, §3.3: the chunk
        keeps its blocks but gets a fresh aggregation timer)."""
        if self.pending_blocks:
            self._timer_start_us = now_us
            self._arm_heap()

    # ------------------------------------------------------------------
    # lazy deadline heap
    # ------------------------------------------------------------------
    def bind_deadline_heap(self, heap: list[tuple[int, int]]) -> None:
        """Attach the store's shared deadline min-heap.

        Once bound, the buffer guarantees the heap invariant the store's
        O(log G) ``tick`` relies on: whenever this buffer has an armed SLA
        timer, the heap holds at least one ``(d, owner_gid)`` entry with
        ``d <= deadline_us``.  Entries are never removed here; the store
        pops and revalidates them lazily (see ``sync_heap_entry``).
        """
        self._heap = heap
        self._heap_entry_us = None

    @property
    def heap_entry_us(self) -> int | None:
        """Deadline value of the single heap entry this buffer tracks as
        live, or ``None``.  Entries popped at any other value are leftovers
        from a flushed episode and must be dropped, not re-pushed."""
        return self._heap_entry_us

    def sync_heap_entry(self, entry_us: int | None) -> None:
        """Store-side bookkeeping: the store popped this buffer's stale
        heap entry and re-pushed ``entry_us`` (or nothing, when ``None``)."""
        self._heap_entry_us = entry_us

    def _arm_heap(self) -> None:
        """Push a heap entry for the current deadline unless one already
        covers it (an existing entry at or below the deadline suffices)."""
        if self._heap is None or self.window_us is None \
                or self._timer_start_us is None:
            return
        nd = self._timer_start_us + self.window_us
        if self._heap_entry_us is None or nd < self._heap_entry_us:
            heapq.heappush(self._heap, (nd, self.owner_gid))
            self._heap_entry_us = nd

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def append_run(self, kind: int, n: int,
                   now_us: int) -> tuple[int, list[int] | None]:
        """Append ``n >= 1`` blocks of append ``kind``, all at ``now_us``.

        Leaves exactly the state (counts, timer, heap entry) that
        appending the blocks one by one would.  Returns ``(flushes,
        drained)``: how many ``FULL`` flushes the run emitted, and the
        per-kind counts that were pending before the run — they left
        with the first flush (``None`` when nothing flushed).
        """
        p = self.pending_blocks
        cb = self.chunk_blocks
        nf = (p + n) // cb
        if nf == 0:
            self._timer_start_us = now_us
            self.pending[kind] += n
            self.pending_blocks = p + n
            self._arm_heap()
            return 0, None
        drained = self.take_pending()
        leftover = p + n - nf * cb
        if leftover:
            # Episodes born and flushed inside the run never needed heap
            # entries (no tick can interleave); arm only the survivor.
            self.pending[kind] = leftover
            self.pending_blocks = leftover
            self._timer_start_us = now_us
            self._arm_heap()
        return nf, drained

    def poll(self, now_us: int) -> list[int] | None:
        """Drain the chunk (a padded ``DEADLINE`` flush) if the SLA
        deadline has passed; return its per-kind counts."""
        dl = self.deadline_us
        if dl is not None and now_us >= dl and self.pending_blocks:
            return self.take_pending()
        return None

    def force_flush(self) -> list[int] | None:
        """Drain whatever is pending (a padded ``FORCED`` flush);
        ``None`` if empty."""
        return self.take_pending() if self.pending_blocks else None

    def take_pending(self) -> list[int]:
        """Remove and return the per-kind pending counts and disarm the
        timer (whether that is a flush is up to the caller)."""
        drained = self.pending
        self.pending = [0, 0, 0]
        self.pending_blocks = 0
        self._timer_start_us = None
        self._heap_entry_us = None
        return drained
