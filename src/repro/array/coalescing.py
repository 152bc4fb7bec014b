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
from typing import Any

from repro.common.errors import ConfigError
from repro.obs.recorder import NULL_RECORDER, NullRecorder


class FlushReason(Enum):
    FULL = "full"           # chunk filled; no padding
    DEADLINE = "deadline"   # SLA expired; zero-padded
    FORCED = "forced"       # external flush (seal/shutdown); zero-padded


@dataclass(frozen=True)
class ChunkFlush:
    """One chunk write issued to the array."""

    reason: FlushReason
    tokens: tuple[Any, ...]
    data_blocks: int
    padding_blocks: int
    time_us: int

    @property
    def total_blocks(self) -> int:
        return self.data_blocks + self.padding_blocks


class CoalescingBuffer:
    """Open-chunk accumulator for one group.

    Args:
        chunk_blocks: chunk capacity in blocks.
        window_us: SLA coalescing window; ``None`` disables deadline
            flushes (bulk/GC writers).
        sla_mode: ``"idle"`` (deadline restarts on each append) or
            ``"first"`` (deadline fixed at first append).
        obs: observability recorder notified of every emitted flush
            (defaults to the shared no-op recorder).
        owner_gid / owner_name: identity stamped onto the emitted
            ``chunk_flush``/``padding`` events.
    """

    def __init__(self, chunk_blocks: int, window_us: int | None,
                 sla_mode: str = "idle",
                 obs: NullRecorder | None = None,
                 owner_gid: int = -1, owner_name: str = "") -> None:
        if chunk_blocks < 1:
            raise ConfigError("chunk_blocks must be >= 1")
        if window_us is not None and window_us < 0:
            raise ConfigError("window_us must be >= 0 or None")
        if sla_mode not in ("idle", "first"):
            raise ConfigError(f"unknown sla_mode {sla_mode!r}")
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        self.sla_mode = sla_mode
        self.obs = NULL_RECORDER if obs is None else obs
        self.owner_gid = owner_gid
        self.owner_name = owner_name
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
    def append(self, token: Any, now_us: int) -> ChunkFlush | None:
        """Add one block; return a ``FULL`` flush if the chunk filled."""
        if not self._tokens or self.sla_mode == "idle":
            self._timer_start_us = now_us
            self._arm_heap()
        self._tokens.append(token)
        if len(self._tokens) >= self.chunk_blocks:
            return self._emit(FlushReason.FULL, now_us, pad=False)
        return None

    def append_run(self, kind: int, lbas: list[int],
                   ts_us: list[int]) -> list[ChunkFlush]:
        """Append a run of ``(kind, lba)`` tokens at per-block times.

        Exactly equivalent to calling :meth:`append` once per token —
        returns the ``FULL`` flushes emitted, in order — but does the token
        extension and timer updates per chunk instead of per block.  Used
        by the run-append paths (GC migration, the batched replay
        engine); the caller guarantees the timestamps are non-decreasing.
        """
        flushes: list[ChunkFlush] = []
        tokens = self._tokens
        cb = self.chunk_blocks
        pos, n = 0, len(lbas)
        while pos < n:
            end = min(pos + cb - len(tokens), n)
            if self.sla_mode == "idle":
                # idle mode restarts the timer on every append, so only
                # the last append of this chunk-portion matters.
                self._timer_start_us = ts_us[end - 1]
            elif not tokens:
                # "first" mode arms the timer at the chunk's first append.
                self._timer_start_us = ts_us[pos]
            tokens.extend((kind, lba) for lba in lbas[pos:end])
            if len(tokens) >= cb:
                flushes.append(self._emit(FlushReason.FULL, ts_us[end - 1],
                                          pad=False))
            pos = end
        if tokens:
            # Episodes born and flushed inside the run never needed heap
            # entries (no tick can interleave); arm only the survivor.
            self._arm_heap()
        return flushes

    def append_run_counted(self, kind: int, lbas: list[int],
                           ts_us: list[int]) -> tuple[int, int]:
        """Append a run like :meth:`append_run` but without materializing
        the ``FULL`` :class:`ChunkFlush` objects.

        Returns ``(full_flushes, new_tokens_flushed)``; the caller owns
        the accounting a flush object would otherwise carry (any pending
        pre-run tokens are part of the first flush, so when
        ``full_flushes > 0`` every pre-run token was flushed too).  Used
        by the run-append paths when nothing consumes the flush
        objects; end state (tokens, timer, heap entry) is bit-identical
        to :meth:`append_run`.
        """
        tokens = self._tokens
        cb = self.chunk_blocks
        p = len(tokens)
        n = len(lbas)
        nf = (p + n) // cb
        if nf == 0:
            if self.sla_mode == "idle":
                self._timer_start_us = ts_us[n - 1]
            elif not tokens:
                self._timer_start_us = ts_us[0]
            tokens.extend((kind, lba) for lba in lbas)
            self._arm_heap()
            return 0, 0
        leftover = p + n - nf * cb
        if leftover:
            self._tokens = [(kind, lba) for lba in lbas[n - leftover:]]
            # The last flush cleared the timer and the tracked heap
            # entry; the surviving chunk re-arms exactly as the final
            # portion of append_run would.
            self._timer_start_us = ts_us[n - 1] \
                if self.sla_mode == "idle" else ts_us[n - leftover]
            self._heap_entry_us = None
            self._arm_heap()
        else:
            self._tokens = []
            self._timer_start_us = None
            self._heap_entry_us = None
        return nf, nf * cb - p

    def poll(self, now_us: int) -> ChunkFlush | None:
        """Flush with padding if the SLA deadline has passed."""
        dl = self.deadline_us
        if dl is not None and now_us >= dl and self._tokens:
            return self._emit(FlushReason.DEADLINE, now_us, pad=True)
        return None

    def force_flush(self, now_us: int) -> ChunkFlush | None:
        """Flush whatever is pending (padded); ``None`` if empty."""
        if not self._tokens:
            return None
        return self._emit(FlushReason.FORCED, now_us, pad=True)

    def take_pending(self) -> tuple[Any, ...]:
        """Remove and return all pending tokens *without* emitting a flush.

        Used when another group's chunk absorbs these blocks (shadow
        append); no array I/O happens for this buffer.
        """
        tokens = tuple(self._tokens)
        self._tokens.clear()
        self._timer_start_us = None
        self._heap_entry_us = None
        return tokens

    def _emit(self, reason: FlushReason, now_us: int, pad: bool) -> ChunkFlush:
        tokens = tuple(self._tokens)
        padding = self.chunk_blocks - len(tokens) if pad else 0
        self._tokens.clear()
        self._timer_start_us = None
        self._heap_entry_us = None
        flush = ChunkFlush(reason=reason, tokens=tokens,
                           data_blocks=len(tokens), padding_blocks=padding,
                           time_us=now_us)
        if self.obs.enabled:
            self.obs.on_chunk_flush(self.owner_gid, self.owner_name, flush)
        return flush
