"""Traffic accounting for the store: the numbers behind every figure.

Write amplification follows the paper's definition for LSS-on-array
deployments: *all* flash block writes — user data, GC rewrites, shadow
substitutes and zero-padding — divided by the blocks the user asked to
write.  Padding is included because it "exacerbates the actual write
amplification ratio" (§1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.array.raid5 import Raid5Accounting


@dataclass(slots=True)
class GroupTraffic:
    """Per-group block-write breakdown (Fig 3a's bars)."""

    name: str
    kind: str
    user_blocks: int = 0
    gc_blocks: int = 0
    shadow_blocks: int = 0
    padding_blocks: int = 0
    chunk_flushes: int = 0
    deadline_flushes: int = 0
    forced_flushes: int = 0

    @property
    def data_blocks(self) -> int:
        return self.user_blocks + self.gc_blocks + self.shadow_blocks

    @property
    def total_blocks(self) -> int:
        return self.data_blocks + self.padding_blocks

    def padding_fraction(self) -> float:
        """Padding share of this group's write volume."""
        total = self.total_blocks
        return self.padding_blocks / total if total else 0.0


@dataclass(slots=True)
class StoreStats:
    """Aggregated counters for one store instance.

    Besides the totals, the store tallies the shapes its observers
    report as distributions: padded flushes by padding size, GC victims
    by valid blocks, and lazy appends (§3.3).  The recorder derives its
    flush, padding and victim histograms from these tallies instead of
    re-counting events.
    """

    user_blocks_requested: int = 0
    read_requests: int = 0
    write_requests: int = 0
    gc_passes: int = 0
    gc_segments_reclaimed: int = 0
    gc_blocks_migrated: int = 0
    groups: list[GroupTraffic] = field(default_factory=list)
    raid: Raid5Accounting = field(default_factory=Raid5Accounting)
    #: Padded (DEADLINE or FORCED) chunk flushes, indexed by padding
    #: blocks (sized ``chunk_blocks`` by the store).
    padded_flushes: list[int] = field(default_factory=list)
    #: Reclaimed GC victims, indexed by valid blocks migrated out (sized
    #: ``segment_blocks + 1`` by the store).
    victim_valid: list[int] = field(default_factory=list)
    #: Chunk flushes that lazily appended shadowed blocks, and the blocks.
    lazy_appends: int = 0
    lazy_blocks: int = 0

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    @property
    def user_blocks_written(self) -> int:
        return sum(g.user_blocks for g in self.groups)

    @property
    def gc_blocks_written(self) -> int:
        return sum(g.gc_blocks for g in self.groups)

    @property
    def shadow_blocks_written(self) -> int:
        return sum(g.shadow_blocks for g in self.groups)

    @property
    def padding_blocks_written(self) -> int:
        return sum(g.padding_blocks for g in self.groups)

    @property
    def flash_blocks_written(self) -> int:
        return sum(g.total_blocks for g in self.groups)

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------
    def write_amplification(self) -> float:
        """Total flash block writes per user-requested block write."""
        if self.user_blocks_requested == 0:
            return 0.0
        return self.flash_blocks_written / self.user_blocks_requested

    def padding_traffic_ratio(self) -> float:
        """Padding share of total flash writes (Fig 9's x-axis)."""
        total = self.flash_blocks_written
        return self.padding_blocks_written / total if total else 0.0

    def gc_traffic_ratio(self) -> float:
        total = self.flash_blocks_written
        return self.gc_blocks_written / total if total else 0.0

    def summary(self) -> dict[str, float]:
        """Flat dict of headline metrics (handy for report tables)."""
        return {
            "user_blocks_requested": float(self.user_blocks_requested),
            "read_requests": float(self.read_requests),
            "write_requests": float(self.write_requests),
            "flash_blocks_written": float(self.flash_blocks_written),
            "gc_blocks_written": float(self.gc_blocks_written),
            "shadow_blocks_written": float(self.shadow_blocks_written),
            "padding_blocks_written": float(self.padding_blocks_written),
            "write_amplification": self.write_amplification(),
            "padding_traffic_ratio": self.padding_traffic_ratio(),
            "gc_traffic_ratio": self.gc_traffic_ratio(),
            "gc_passes": float(self.gc_passes),
            "gc_segments_reclaimed": float(self.gc_segments_reclaimed),
        }
