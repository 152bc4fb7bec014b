"""Chunk-coalescing buffer with the zero-padding SLA.

Every group in the LSS funnels its appended blocks through one open chunk.
A chunk is flushed to the array either when it fills (``FULL``) or when the
SLA coalescing window expires (``DEADLINE``, 100 µs in the paper's
Pangu-derived setting) — in which case the remainder of the chunk is
zero-padded.  GC-facing groups write in bulk and use ``window_us=None``:
they never pad on a deadline, matching the paper's Observation 2.

Two window semantics are supported:

* ``"idle"`` (default) — the deadline restarts on every append, i.e. a chunk
  is padded once the stream to its group pauses for a full window.  This is
  the semantics consistent with the paper's Fig 11, where traffic denser
  than the 100 µs window "eliminates zero-padding across all schemes", and
  with §3.3's resettable "aggregation timer".
* ``"first"`` — the deadline is fixed at first-append + window (a strict
  per-block buffering-latency SLA).  Exposed for ablations.

The buffer stores opaque *tokens* (the LSS puts segment-slot handles in
them) so this module stays independent of the log layer above it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Any

from repro.common.errors import ConfigError


class FlushReason(Enum):
    FULL = "full"           # chunk filled; no padding
    DEADLINE = "deadline"   # SLA expired; zero-padded
    FORCED = "forced"       # external flush (seal/shutdown); zero-padded


@dataclass(slots=True)
class ChunkFlush:
    """``count`` chunk writes one group issued to the array.

    The one shape in which every layer learns that chunks were flushed;
    the group that owns the buffer builds it (the buffer's tokens are
    opaque here).  A single flush is a run of one.  ``count > 1`` only
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
    """Open-chunk accumulator for one group.

    Every operation that flushes the chunk drains it and returns the
    drained tokens; what the flush means (kinds, padding, accounting)
    is the owner's business.

    Args:
        chunk_blocks: chunk capacity in blocks.
        window_us: SLA coalescing window; ``None`` disables deadline
            flushes (bulk/GC writers).
        sla_mode: ``"idle"`` (deadline restarts on each append) or
            ``"first"`` (deadline fixed at first append).
        owner_gid: identity stamped onto this buffer's entries in a
            shared deadline heap.
    """

    __slots__ = ("chunk_blocks", "window_us", "sla_mode", "owner_gid",
                 "_tokens", "_timer_start_us", "_heap", "_heap_entry_us")

    def __init__(self, chunk_blocks: int, window_us: int | None,
                 sla_mode: str = "idle", owner_gid: int = -1) -> None:
        if chunk_blocks < 1:
            raise ConfigError("chunk_blocks must be >= 1")
        if window_us is not None and window_us < 0:
            raise ConfigError("window_us must be >= 0 or None")
        if sla_mode not in ("idle", "first"):
            raise ConfigError(f"unknown sla_mode {sla_mode!r}")
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        self.sla_mode = sla_mode
        self.owner_gid = owner_gid
        self._tokens: list[Any] = []
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
    def pending_blocks(self) -> int:
        return len(self._tokens)

    @property
    def free_slots(self) -> int:
        return self.chunk_blocks - len(self._tokens)

    @property
    def pending_tokens(self) -> tuple[Any, ...]:
        return tuple(self._tokens)

    @property
    def deadline_us(self) -> int | None:
        """Absolute time of the next SLA deadline, or ``None``."""
        if self.window_us is None or self._timer_start_us is None:
            return None
        return self._timer_start_us + self.window_us

    def reset_timer(self, now_us: int) -> None:
        """Restart the SLA window (used by shadow append, §3.3: the chunk
        keeps its blocks but gets a fresh aggregation timer)."""
        if self._tokens:
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
    def append(self, token: Any, now_us: int) -> tuple[Any, ...] | None:
        """Add one block; if that fills the chunk, drain it (a ``FULL``
        flush) and return its tokens."""
        if not self._tokens or self.sla_mode == "idle":
            self._timer_start_us = now_us
            # An entry at or below the new deadline already covers it
            # (no entry is ever live without a window).
            entry = self._heap_entry_us
            if entry is None or now_us + self.window_us < entry:
                self._arm_heap()
        self._tokens.append(token)
        if len(self._tokens) >= self.chunk_blocks:
            return self.take_pending()
        return None

    def append_run(self, kind: int, lbas: list[int],
                   now_us: int) -> tuple[int, tuple[Any, ...]]:
        """Append a run of ``(kind, lba)`` tokens, all at ``now_us``.

        Leaves exactly the state (tokens, timer, heap entry) that calling
        :meth:`append` once per token would.  Returns ``(flushes,
        drained)``: how many ``FULL`` flushes the run emitted, and the
        tokens that were pending before the run — they left with the
        first flush (``()`` when nothing flushed).
        """
        tokens = self._tokens
        cb = self.chunk_blocks
        p = len(tokens)
        n = len(lbas)
        nf = (p + n) // cb
        if nf == 0:
            # Idle mode restarts the timer on every append; "first" mode
            # arms it at the chunk's first append.
            if self.sla_mode == "idle" or not tokens:
                self._timer_start_us = now_us
            tokens.extend(zip(repeat(kind), lbas))
            self._arm_heap()
            return 0, ()
        drained = self.take_pending()
        leftover = p + n - nf * cb
        if leftover:
            # Episodes born and flushed inside the run never needed heap
            # entries (no tick can interleave); arm only the survivor.
            tokens.extend(zip(repeat(kind), lbas[n - leftover:]))
            self._timer_start_us = now_us
            self._arm_heap()
        return nf, drained

    def poll(self, now_us: int) -> tuple[Any, ...] | None:
        """Drain the chunk (a padded ``DEADLINE`` flush) if the SLA
        deadline has passed; return its tokens."""
        dl = self.deadline_us
        if dl is not None and now_us >= dl and self._tokens:
            return self.take_pending()
        return None

    def force_flush(self) -> tuple[Any, ...] | None:
        """Drain whatever is pending (a padded ``FORCED`` flush);
        ``None`` if empty."""
        return self.take_pending() if self._tokens else None

    def take_pending(self) -> tuple[Any, ...]:
        """Remove and return all pending tokens and disarm the timer
        (whether that is a flush is up to the caller)."""
        tokens = tuple(self._tokens)
        self._tokens.clear()
        self._timer_start_us = None
        self._heap_entry_us = None
        return tokens
