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
per-kind totals, so counts are all the log layer needs.  Its SLA
deadline is a plain field that an arming append sets and a drain clears.
The store keeps one due time across its buffers, a lower bound on the
earliest armed deadline, and looks at the buffers only once it has
passed (:meth:`repro.lss.store.LogStructuredStore.tick`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from repro.common.errors import ConfigError

# Append kinds: the index of each kind's count in a buffer's ``pending``
# list and in the per-kind counts a drain returns.
APPEND_USER = 0
APPEND_GC = 1
APPEND_SHADOW = 2

#: The due time of a clock with no deadline armed: later than any time.
NO_DEADLINE: int = sys.maxsize


class FlushReason(Enum):
    FULL = "full"           # chunk filled; no padding
    DEADLINE = "deadline"   # SLA expired; zero-padded
    FORCED = "forced"       # external flush (seal/shutdown); zero-padded


@dataclass(slots=True)
class ChunkFlush:
    """``count`` chunk writes one group issued to the array.

    The one shape in which an observer learns that chunks were flushed;
    the group that owns the buffer builds it from the drained per-kind
    counts, and only when some observer overrides ``chunk_flush`` (the
    store's own tallies are booked without it).  A single flush is a
    run of one.  ``count > 1`` only for the FULL flushes one append run
    emits back to back, which occupy consecutive device addresses; the
    block counts are totals over the run and ``time_us`` is when its
    last chunk filled.

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
    the SLA deadline.

    Every operation that flushes the chunk drains it and returns the
    drained per-kind counts (a ``[user, gc, shadow]`` list the caller
    now owns); what the flush means (padding, accounting) is the
    owner's business.  So is telling the store's clock about a deadline
    an append armed: the buffer only keeps its own.

    Args:
        chunk_blocks: chunk capacity in blocks.
        window_us: SLA coalescing window; ``None`` disables deadline
            flushes (bulk/GC writers).
    """

    __slots__ = ("chunk_blocks", "window_us", "pending", "pending_blocks",
                 "deadline_us")

    def __init__(self, chunk_blocks: int, window_us: int | None) -> None:
        if chunk_blocks < 1:
            raise ConfigError("chunk_blocks must be >= 1")
        if window_us is not None and window_us < 0:
            raise ConfigError("window_us must be >= 0 or None")
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        #: Pending blocks per append kind, and their total.
        self.pending = [0, 0, 0]
        self.pending_blocks = 0
        #: Absolute time of the armed SLA deadline, or ``None``: an
        #: append that leaves blocks pending sets it (the window restarts
        #: there), a drain clears it.  Never set without ``window_us``.
        self.deadline_us: int | None = None

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def free_slots(self) -> int:
        return self.chunk_blocks - self.pending_blocks

    def reset_timer(self, now_us: int) -> None:
        """Restart the SLA window (used by shadow append, §3.3: the chunk
        keeps its blocks but gets a fresh aggregation timer)."""
        if self.pending_blocks and self.window_us is not None:
            self.deadline_us = now_us + self.window_us

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def append_run(self, kind: int, n: int,
                   now_us: int) -> tuple[int, list[int] | None]:
        """Append ``n >= 1`` blocks of append ``kind``, all at ``now_us``.

        Leaves exactly the state (counts, deadline) that appending the
        blocks one by one would.  Returns ``(flushes, drained)``: how
        many ``FULL`` flushes the run emitted, and the per-kind counts
        that were pending before the run — they left with the first
        flush (``None`` when nothing flushed).
        """
        p = self.pending_blocks
        cb = self.chunk_blocks
        nf = (p + n) // cb
        window = self.window_us
        if nf == 0:
            self.pending[kind] += n
            self.pending_blocks = p + n
            if window is not None:
                self.deadline_us = now_us + window
            return 0, None
        drained = self.take_pending()
        leftover = p + n - nf * cb
        if leftover:
            self.pending[kind] = leftover
            self.pending_blocks = leftover
            if window is not None:
                self.deadline_us = now_us + window
        return nf, drained

    def poll(self, now_us: int) -> list[int] | None:
        """Drain the chunk (a padded ``DEADLINE`` flush) if the SLA
        deadline has passed; return its per-kind counts."""
        dl = self.deadline_us
        if dl is not None and now_us >= dl:
            return self.take_pending()
        return None

    def force_flush(self) -> list[int] | None:
        """Drain whatever is pending (a padded ``FORCED`` flush);
        ``None`` if empty."""
        return self.take_pending() if self.pending_blocks else None

    def take_pending(self) -> list[int]:
        """Remove and return the per-kind pending counts and disarm the
        deadline (whether that is a flush is up to the caller)."""
        drained = self.pending
        self.pending = [0, 0, 0]
        self.pending_blocks = 0
        self.deadline_us = None
        return drained
