"""Configuration of the log-structured store."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.array.chunk import ChunkGeometry
from repro.common.errors import ConfigError


def default_segment_blocks(logical_blocks: int,
                           chunk_blocks: int = 16) -> int:
    """A segment size that keeps per-group pinned space small relative to
    the volume: ~1/128 of the logical space, chunk-aligned, in [2 chunks,
    256 blocks]."""
    target = logical_blocks // 128
    seg = max(2 * chunk_blocks, min(256, target))
    return -(-seg // chunk_blocks) * chunk_blocks


@dataclass(frozen=True, slots=True)
class LSSConfig:
    """Shape and policy knobs of one simulated store instance.

    Defaults follow the paper's setup (§4.1): 4 KiB blocks, 64 KiB chunks,
    100 µs coalescing SLA.  Segment size and over-provisioning are the usual
    LSS-simulation knobs; the physical pool is ``logical`` segments times
    ``1 + over_provisioning``.

    Attributes:
        logical_blocks: size of the volume's logical address space in blocks.
        segment_blocks: blocks per segment (must be a chunk multiple).
        chunk: block/chunk geometry of the underlying array.
        over_provisioning: extra physical space fraction (0.25 = 25 %).
        coalesce_window_us: SLA window before a partial chunk is padded.
        gc_free_low: GC triggers when free segments drop to this level.
        gc_free_high: GC cleans until free segments recover to this level.
        victim_policy: victim-selection policy name (see ``lss.victim``).
        seed: RNG seed for stochastic victim policies.
    """

    logical_blocks: int
    segment_blocks: int = 256
    chunk: ChunkGeometry = field(default_factory=ChunkGeometry)
    over_provisioning: float = 0.25
    coalesce_window_us: int = 100
    gc_free_low: int = 4
    gc_free_high: int = 8
    victim_policy: str = "greedy"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.logical_blocks <= 0:
            raise ConfigError("logical_blocks must be positive")
        if self.segment_blocks <= 0:
            raise ConfigError("segment_blocks must be positive")
        if self.segment_blocks % self.chunk.chunk_blocks:
            raise ConfigError(
                f"segment_blocks={self.segment_blocks} must be a multiple of "
                f"chunk_blocks={self.chunk.chunk_blocks}")
        if self.over_provisioning <= 0:
            raise ConfigError("over_provisioning must be > 0")
        if self.coalesce_window_us < 0:
            raise ConfigError("coalesce_window_us must be >= 0")
        if not 0 < self.gc_free_low <= self.gc_free_high:
            raise ConfigError("need 0 < gc_free_low <= gc_free_high")

    @property
    def logical_segments(self) -> int:
        return -(-self.logical_blocks // self.segment_blocks)

    @property
    def physical_segments(self) -> int:
        return int(round(self.logical_segments * (1 + self.over_provisioning)))

    @property
    def physical_blocks(self) -> int:
        return self.physical_segments * self.segment_blocks

    def validate_for_groups(self, num_groups: int) -> None:
        """Check that the physical pool can host ``num_groups`` pinned open
        segments plus the GC watermark headroom."""
        need = self.logical_segments + self.gc_free_high + num_groups + 1
        if self.physical_segments < need:
            raise ConfigError(
                f"physical pool too small: {self.physical_segments} segments "
                f"< {need} required for {num_groups} groups (raise "
                f"over_provisioning, shrink segment_blocks, or grow the "
                f"volume)")
