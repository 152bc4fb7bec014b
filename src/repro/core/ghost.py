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

Mirroring the replay engines' reference-vs-batched split, the scalar
:meth:`GhostSet.record` path drives real :class:`CoalescingBuffer` objects
— the same chunk machinery the store itself uses — while the batched
:meth:`GhostSet.record_many` path operates on those buffers' state with
the per-record machinery inlined.  Both paths share one canonical state,
so arbitrary interleavings stay bit-identical (the ghost equivalence
suite fuzzes exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.coalescing import CoalescingBuffer


@dataclass
class _GhostSegment:
    """One miniature segment: just the LBA list and a fill/pad count."""

    blocks: list[int]
    padding: int = 0
    valid: int = 0
    sealed: bool = False

    @property
    def fill(self) -> int:
        return len(self.blocks) + self.padding


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
        sla_mode: coalescing window semantics (matches the real store).
    """

    HOT, COLD = 0, 1

    def __init__(self, threshold: float, segment_blocks: int,
                 chunk_blocks: int, window_us: int, garbage_limit: float,
                 sla_mode: str = "idle") -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if segment_blocks < chunk_blocks:
            raise ValueError("segment must hold at least one chunk")
        if not 0 < garbage_limit < 1:
            raise ValueError("garbage_limit must be in (0, 1)")
        self.threshold = threshold
        self.segment_blocks = segment_blocks
        self.chunk_blocks = chunk_blocks
        self.garbage_limit = garbage_limit

        self._buffers = [
            CoalescingBuffer(chunk_blocks, window_us, sla_mode=sla_mode)
            for _ in range(2)
        ]
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
        self._poll(now_us)
        if interval is None:
            interval = float(len(self._where))
        group = self.HOT if interval < self.threshold else self.COLD
        # A previous copy of this LBA (if any) becomes garbage implicitly:
        # validity is derived from the _where map pointing elsewhere.
        self._append(group, lba, now_us)
        self._maybe_gc()

    def record_many(self, lbas: list[int], intervals: list[float | None],
                    ts_us: list[int]) -> None:
        """Feed many sampled writes at per-block times.

        Bit-identical to sequential :meth:`record` calls — the poll /
        classify / append / seal / GC cadence is preserved per record —
        but with the buffer machinery inlined onto its own state (the
        pending-token lists and SLA timers) and every per-call attribute
        lookup hoisted out of the loop.  The ghost buffers have no bound
        deadline heap and no flush consumers, so a ``FULL`` flush reduces
        to clearing the tokens and timer, and a ``DEADLINE`` flush to
        that plus the padding accounting.
        """
        where = self._where
        get = where.get
        open_ = self._open
        sealed = self._sealed
        bufs = self._buffers
        tok = [bufs[0]._tokens, bufs[1]._tokens]
        timer = [bufs[0]._timer_start_us, bufs[1]._timer_start_us]
        window = bufs[0].window_us
        idle = bufs[0].sla_mode == "idle"
        threshold = self.threshold
        cb = self.chunk_blocks
        segb = self.segment_blocks
        limit = self.garbage_limit
        written = 0
        padded = 0
        total = self._total_slots
        for i in range(len(lbas)):
            now = ts_us[i]
            if window is not None:
                for g in (0, 1):
                    t0 = timer[g]
                    tg = tok[g]
                    if t0 is not None and now >= t0 + window and tg:
                        pad = cb - len(tg)
                        tg.clear()
                        timer[g] = None
                        seg = open_[g]
                        seg.padding += pad
                        padded += pad
                        total += pad
                        if seg.fill >= segb:
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
            seg.blocks.append(lba)
            seg.valid += 1
            where[lba] = seg
            written += 1
            total += 1
            tg = tok[g]
            if idle or not tg:
                timer[g] = now
            tg.append(lba)
            if len(tg) >= cb:
                tg.clear()
                timer[g] = None
            if seg.fill >= segb:
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
        bufs[0]._timer_start_us = timer[0]
        bufs[1]._timer_start_us = timer[1]

    def _append(self, group: int, lba: int, now_us: int) -> None:
        seg = self._open[group]
        old = self._where.get(lba)
        if old is not None:
            old.valid -= 1
        seg.blocks.append(lba)
        seg.valid += 1
        self._where[lba] = seg
        self.blocks_written += 1
        self._total_slots += 1
        self._buffers[group].append(lba, now_us)  # a FULL flush pads nothing
        self._maybe_seal(group)

    def _poll(self, now_us: int) -> None:
        for group in (self.HOT, self.COLD):
            drained = self._buffers[group].poll(now_us)
            if drained is not None:
                pad = self.chunk_blocks - len(drained)
                self._open[group].padding += pad
                self.padding_blocks += pad
                self._total_slots += pad
                self._maybe_seal(group)

    def _maybe_seal(self, group: int) -> None:
        seg = self._open[group]
        if seg.fill >= self.segment_blocks:
            seg.sealed = True
            self._sealed.append(seg)
            self._open[group] = self._new_segment()

    @staticmethod
    def _new_segment() -> _GhostSegment:
        return _GhostSegment(blocks=[])

    # ------------------------------------------------------------------
    # ghost GC
    # ------------------------------------------------------------------
    def _valid_count(self, seg: _GhostSegment) -> int:
        return seg.valid

    def garbage_ratio(self) -> float:
        if self._total_slots == 0:
            return 0.0
        return 1.0 - len(self._where) / self._total_slots

    def _maybe_gc(self) -> None:
        while self._sealed and self.garbage_ratio() > self.garbage_limit:
            victim_idx = min(
                range(len(self._sealed)),
                key=lambda i: self._valid_count(self._sealed[i]))
            victim = self._sealed.pop(victim_idx)
            self.gc_passes += 1
            self._total_slots -= victim.fill
            for lba in victim.blocks:
                if victim.valid == 0:
                    break
                if self._where.get(lba) is victim:
                    # A real system would migrate this block to a
                    # GC-rewritten group; the ghost set only models
                    # user-written groups, so the block is discarded and
                    # counted as migration cost.
                    del self._where[lba]
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
