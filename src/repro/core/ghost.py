"""Ghost-set simulation of user-written groups (§3.2).

A ghost set replays the *sampled* write stream through a miniature
two-group (hot/cold) log that tracks only LBAs.  Its segments are scaled by
the sampling rate and its chunk-aggregation window is proportionally
stretched.  GC in a ghost set *discards* valid blocks instead of rewriting
them (in the real system those blocks migrate out of the user-written
groups), and its WA-cost signal is

    cost = (discarded valid blocks + padding blocks) / blocks written,

which captures exactly the two components the threshold is meant to
minimise: GC migration out of user groups and zero-padding.  Each ghost set
runs one candidate threshold; the ladder compares their costs.

Each ghost group's open chunk is two inline counters — pending blocks
and the SLA timer start — with the store's coalescing semantics (a
:class:`~repro.array.coalescing.CoalescingBuffer` without flush
consumers): every append restarts the window.  Like the store, a ghost
set keeps one due time, a lower bound on its two chunks' deadlines, and
polls the chunks only once a sample reaches it.  :meth:`GhostSet.record`
is a one-block :meth:`GhostSet.record_many`, so arbitrary interleavings
of the two stay bit-identical (the ghost equivalence suite fuzzes
exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.coalescing import NO_DEADLINE


@dataclass(slots=True)
class _GhostSegment:
    """One miniature segment: the LBA list (its fill is that plus the
    padding) and a valid count."""

    blocks: list[int]
    padding: int = 0
    valid: int = 0
    sealed: bool = False


class GhostSet:
    """One candidate hot/cold threshold simulated on the sampled stream.

    Args:
        threshold: hot/cold reuse-interval boundary (sampled-unique-block
            units).
        segment_blocks: scaled segment capacity in blocks.
        chunk_blocks: scaled chunk capacity in blocks.
        window_us: scaled coalescing window.
        garbage_limit: GC triggers when the dead fraction of occupied slots
            exceeds this.
    """

    __slots__ = ("threshold", "segment_blocks", "chunk_blocks",
                 "window_us", "garbage_limit", "_pending",
                 "_timer", "_due", "_open", "_sealed", "_where",
                 "blocks_written", "blocks_discarded", "padding_blocks",
                 "gc_passes", "_total_slots")

    HOT, COLD = 0, 1

    def __init__(self, threshold: float, segment_blocks: int,
                 chunk_blocks: int, window_us: int,
                 garbage_limit: float) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if segment_blocks < chunk_blocks:
            raise ValueError("segment must hold at least one chunk")
        if not 0 < garbage_limit < 1:
            raise ValueError("garbage_limit must be in (0, 1)")
        self.threshold = threshold
        self.segment_blocks = segment_blocks
        self.chunk_blocks = chunk_blocks
        self.window_us = window_us
        self.garbage_limit = garbage_limit

        #: Per group (HOT, COLD): blocks pending in the open chunk, and
        #: the chunk's SLA timer start (``None`` while it is empty).
        self._pending = [0, 0]
        self._timer: list[int | None] = [None, None]
        #: At or below both chunks' deadlines (``timer + window_us``);
        #: no chunk is due before it.
        self._due = NO_DEADLINE
        self._open: list[_GhostSegment] = [self._new_segment(),
                                           self._new_segment()]
        self._sealed: list[_GhostSegment] = []
        self._where: dict[int, _GhostSegment] = {}

        # cost counters
        self.blocks_written = 0
        self.blocks_discarded = 0
        self.padding_blocks = 0
        self.gc_passes = 0
        #: Occupied slots across all live segments (incremental; avoids an
        #: O(#segments) scan per record — see the HPC guides on hot loops).
        self._total_slots = 0

    # ------------------------------------------------------------------
    # stream interface
    # ------------------------------------------------------------------
    def record(self, lba: int, interval: float | None, now_us: int) -> None:
        """Feed one sampled block write with its reuse interval.

        ``interval=None`` (first access) uses the current live footprint as
        a proxy: an unseen block's reuse distance is at least the working
        set, so very large thresholds — which the ladder picks when group
        splitting costs more padding than GC saves — route first writes hot
        too, collapsing to single-user-group behaviour.
        """
        self.record_many([lba], [interval], [now_us])

    def record_many(self, lbas: list[int], intervals: list[float | None],
                    ts_us: list[int]) -> None:
        """Feed many sampled writes at per-block times, each as
        :meth:`record` describes: poll both chunks' SLA deadlines once
        the due time has passed (and recompute it), classify, append,
        seal, and clean while the garbage ratio is over the limit.

        A ``FULL`` flush empties the chunk and disarms its timer; a
        ``DEADLINE`` flush also pads the rest of the chunk.  Every per-call
        attribute lookup is hoisted out of the loop.
        """
        where = self._where
        get = where.get
        open_ = self._open
        sealed = self._sealed
        pending = self._pending
        timer = self._timer
        window = self.window_us
        threshold = self.threshold
        cb = self.chunk_blocks
        segb = self.segment_blocks
        limit = self.garbage_limit
        written = 0
        padded = 0
        total = self._total_slots
        due = self._due
        for i in range(len(lbas)):
            now = ts_us[i]
            if now >= due:
                due = NO_DEADLINE
                for g in (0, 1):
                    t0 = timer[g]
                    if t0 is None:
                        continue
                    deadline = t0 + window
                    if now < deadline:
                        if deadline < due:
                            due = deadline
                        continue
                    # An armed timer implies pending blocks.
                    pad = cb - pending[g]
                    pending[g] = 0
                    timer[g] = None
                    seg = open_[g]
                    seg.padding += pad
                    padded += pad
                    total += pad
                    if len(seg.blocks) + seg.padding >= segb:
                        seg.sealed = True
                        sealed.append(seg)
                        open_[g] = _GhostSegment(blocks=[])
            iv = intervals[i]
            if iv is None:
                iv = float(len(where))
            g = 0 if iv < threshold else 1
            lba = lbas[i]
            old = get(lba)
            if old is not None:
                old.valid -= 1
            seg = open_[g]
            blocks = seg.blocks
            blocks.append(lba)
            seg.valid += 1
            where[lba] = seg
            written += 1
            total += 1
            p = pending[g] + 1
            if p >= cb:
                pending[g] = 0
                timer[g] = None
            else:
                pending[g] = p
                timer[g] = now
                if now + window < due:
                    due = now + window
            if len(blocks) + seg.padding >= segb:
                seg.sealed = True
                sealed.append(seg)
                open_[g] = _GhostSegment(blocks=[])
            if sealed and total and 1.0 - len(where) / total > limit:
                self._total_slots = total
                self._maybe_gc()
                total = self._total_slots
        self.blocks_written += written
        self.padding_blocks += padded
        self._total_slots = total
        self._due = due

    @staticmethod
    def _new_segment() -> _GhostSegment:
        return _GhostSegment(blocks=[])

    # ------------------------------------------------------------------
    # ghost GC
    # ------------------------------------------------------------------
    def garbage_ratio(self) -> float:
        if self._total_slots == 0:
            return 0.0
        return 1.0 - len(self._where) / self._total_slots

    def _maybe_gc(self) -> None:
        sealed = self._sealed
        where = self._where
        limit = self.garbage_limit
        while sealed and self._total_slots \
                and 1.0 - len(where) / self._total_slots > limit:
            # The first sealed segment with the fewest valid blocks.
            victim_idx = 0
            fewest = sealed[0].valid
            for i, seg in enumerate(sealed):
                if seg.valid < fewest:
                    victim_idx, fewest = i, seg.valid
            victim = sealed.pop(victim_idx)
            self.gc_passes += 1
            self._total_slots -= len(victim.blocks) + victim.padding
            for lba in victim.blocks:
                if victim.valid == 0:
                    break
                if where.get(lba) is victim:
                    # A real system would migrate this block to a
                    # GC-rewritten group; the ghost set only models
                    # user-written groups, so the block is discarded and
                    # counted as migration cost.
                    del where[lba]
                    victim.valid -= 1
                    self.blocks_discarded += 1

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def cost(self) -> float:
        """WA-overhead estimate for this threshold (lower is better)."""
        if self.blocks_written == 0:
            return float("inf")
        return (self.blocks_discarded + self.padding_blocks) \
            / self.blocks_written

    def is_warm(self) -> bool:
        """Cost becomes meaningful once GC has cycled a few times."""
        return self.gc_passes >= 3

    def reset_counters(self) -> None:
        """Start a fresh measurement window (after a threshold update)."""
        self.blocks_written = 0
        self.blocks_discarded = 0
        self.padding_blocks = 0
        self.gc_passes = 0

    def live_blocks(self) -> int:
        return len(self._where)

    #: CPython container overhead per live segment: the ``_GhostSegment``
    #: instance (~56 bytes) plus its block-list header (~64 bytes amortised
    #: with growth slack).  Charged on top of per-entry cost so the obs
    #: memory gauge does not under-report the ghost-set footprint.
    SEGMENT_OVERHEAD_BYTES = 120

    def memory_bytes(self) -> int:
        """~20 bytes per simulated block (paper §4.4: LBA + index entry)
        plus per-segment container overhead (sealed + the two open)."""
        segments = len(self._sealed) + len(self._open)
        return 20 * max(self._total_slots, len(self._where)) \
            + self.SEGMENT_OVERHEAD_BYTES * segments
