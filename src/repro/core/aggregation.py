"""Cross-group dynamic aggregation (§3.3).

When the hot user group's open chunk hits its SLA deadline unfilled, ADAPT
can avert the zero-padding flush: the pending hot blocks are *shadow
appended* — substitute copies written into the colder user group's open
chunk, constructing a filled (or at least fuller) chunk that persists both
groups' data in one array write.  The hot chunk keeps its original blocks
(the eventual in-place persistence is the *lazy append*) and restarts its
aggregation timer.

Two conditions gate the mechanism, following the paper:

1. *Sparsity prediction* — the group's recent average accumulated size of
   unfilled chunks (Eq. 1) must show that in-group aggregation cannot fill
   chunks, i.e. the workload phase is sparse.
2. *Stop condition* — once the shadow bytes absorbed by the cold group's
   current open segment exceed that group's historical average padding per
   segment, aggregation pauses: beyond that point substitutes stop
   displacing padding and start consuming real cold capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lss.group import Group
from repro.obs.recorder import NULL_RECORDER, NullRecorder


@dataclass
class GroupWriteMonitor:
    """Per-group statistics behind Eq. 1 and the stop condition."""

    chunk_blocks: int
    data_blocks: int = 0           # V_i: data blocks written (flushed)
    padding_events: int = 0        # P_i: number of padded chunk flushes
    padding_blocks: int = 0
    shadow_blocks: int = 0         # substitutes absorbed by this group
    full_flushes: int = 0
    segments_sealed: int = 0

    def on_flush(self, data_blocks: int, padding_blocks: int,
                 shadow_blocks: int = 0, count: int = 1) -> None:
        """Book ``count`` flushes carrying these block totals (padded
        flushes come one at a time)."""
        self.data_blocks += data_blocks
        self.padding_blocks += padding_blocks
        self.shadow_blocks += shadow_blocks
        if padding_blocks > 0:
            self.padding_events += count
        else:
            self.full_flushes += count

    def avg_unfilled_chunk_blocks(self) -> float:
        """Eq. 1: average accumulated size of unfilled chunks,
        ``C_i = (V_i - S_ck * (filled chunks)) / P_i``."""
        if self.padding_events == 0:
            return float(self.chunk_blocks)
        filled_data = self.chunk_blocks * self.full_flushes
        return max(0.0, (self.data_blocks - filled_data)
                   / self.padding_events)

    def avg_padding_per_segment_blocks(self) -> float:
        """Historical *dead-space* budget per sealed segment of this group.

        Substitutes displace padding one-for-one, so the budget counts both:
        otherwise successful aggregation would shrink its own allowance and
        oscillate (padding falls -> budget falls -> aggregation declines ->
        padding rises again).
        """
        segs = max(self.segments_sealed, 1)
        return (self.padding_blocks + self.shadow_blocks) / segs


@dataclass
class AggregationDecision:
    """Outcome of one deadline event (exported for tests/telemetry)."""

    aggregated: bool
    reason: str
    blocks: int = 0


@dataclass
class CrossGroupAggregator:
    """Implements the shadow-append path between one hot and one cold
    user group."""

    chunk_blocks: int
    monitors: dict[int, GroupWriteMonitor] = field(default_factory=dict)
    shadow_appends: int = 0
    shadow_blocks: int = 0
    declined: int = 0
    obs: NullRecorder = NULL_RECORDER

    def monitor_for(self, gid: int) -> GroupWriteMonitor:
        mon = self.monitors.get(gid)
        if mon is None:
            mon = GroupWriteMonitor(chunk_blocks=self.chunk_blocks)
            self.monitors[gid] = mon
        return mon

    # ------------------------------------------------------------------
    # bookkeeping hooks (wired from the policy)
    # ------------------------------------------------------------------
    def on_flush(self, gid: int, data_blocks: int, padding_blocks: int,
                 shadow_blocks: int = 0, count: int = 1) -> None:
        self.monitor_for(gid).on_flush(data_blocks, padding_blocks,
                                       shadow_blocks, count)

    def on_segment_sealed(self, gid: int) -> None:
        self.monitor_for(gid).segments_sealed += 1

    # ------------------------------------------------------------------
    # the deadline decision
    # ------------------------------------------------------------------
    def try_aggregate(self, hot: Group, cold: Group,
                      now_us: int) -> AggregationDecision:
        """Attempt to avert ``hot``'s padding flush via shadow append into
        ``cold``.  Returns the decision; on success the hot buffer's timer
        was reset and the cold chunk was flushed."""
        pending = hot.unshadowed_pending
        if not pending:
            # Everything pending is already substituted; just extend the
            # timer — durability is already satisfied elsewhere.
            hot.mark_all_shadowed(now_us)
            return AggregationDecision(True, "already-shadowed")

        hot_mon = self.monitor_for(hot.gid)
        # Condition 1: only aggregate in sparse phases, where history says
        # in-group coalescing leaves chunks unfilled.
        if hot_mon.padding_events == 0 and hot_mon.full_flushes > 0:
            self.declined += 1
            return AggregationDecision(False, "dense-phase")

        cold_mon = self.monitor_for(cold.gid)
        # Condition 2 (stop): substitutes already placed in the cold
        # group's open segment must not exceed its padding budget.
        budget_blocks = cold_mon.avg_padding_per_segment_blocks()
        shadow_blocks = cold.segment_shadow_bytes // \
            cold.store.config.chunk.block_bytes
        if cold_mon.segments_sealed > 0 and shadow_blocks >= budget_blocks:
            self.declined += 1
            return AggregationDecision(False, "budget-exhausted")

        # Never shadow more blocks than one chunk can hold.
        batch = pending[: self.chunk_blocks]
        for _kind, lba in batch:
            cold.append_shadow(lba, now_us)
        # The substitutes ride the cold group's chunk: it flushes when it
        # fills (no padding at all — the "filled chunk" of Fig 6) or at the
        # cold group's own SLA deadline (one padded flush covering both
        # groups' sparse streams instead of two).
        hot.mark_all_shadowed(now_us)
        self.shadow_appends += 1
        self.shadow_blocks += len(batch)
        self.obs.on_shadow_append(hot.gid, cold.gid, len(batch), now_us)
        return AggregationDecision(True, "shadow-append", blocks=len(batch))

    def absorb_before_padding(self, cold: Group, hot: Group,
                              now_us: int) -> int:
        """The symmetric direction: ``cold`` is about to pad — fill its
        would-be padding slots with substitutes of ``hot``'s unshadowed
        pending blocks ("utilize redundant blocks in unfilled chunks of
        cold groups", §3.3).  Returns blocks absorbed; the caller still
        lets the (now fuller) padded flush proceed."""
        free = cold.buffer.free_slots
        if free <= 0:
            return 0
        batch = hot.unshadowed_pending[:free]
        if not batch:
            return 0
        for _kind, lba in batch:
            cold.append_shadow(lba, now_us)
        hot.mark_partially_shadowed(len(batch), now_us)
        self.shadow_appends += 1
        self.shadow_blocks += len(batch)
        self.obs.on_shadow_append(hot.gid, cold.gid, len(batch), now_us)
        return len(batch)
