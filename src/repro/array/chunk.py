"""Chunk geometry of the SSD array.

The array's minimum write unit is a *chunk* (64 KiB by default, the Linux
mdraid default the paper adopts); the LSS appends 4 KiB blocks, so a chunk
holds ``chunk_blocks`` block slots.  Sub-chunk flushes are completed with
zero-padding (paper §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import BLOCK_SIZE, KiB


@dataclass(frozen=True, slots=True)
class ChunkGeometry:
    """Geometry relating LSS blocks to array chunks."""

    chunk_bytes: int = 64 * KiB
    block_bytes: int = BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0 or self.block_bytes <= 0:
            raise ConfigError("chunk and block sizes must be positive")
        if self.chunk_bytes % self.block_bytes:
            raise ConfigError(
                f"chunk size {self.chunk_bytes} is not a multiple of the "
                f"block size {self.block_bytes}")
        if self.chunk_bytes < self.block_bytes:
            raise ConfigError("chunk must be at least one block")

    @property
    def chunk_blocks(self) -> int:
        """Block slots per chunk (16 for the 64 KiB / 4 KiB default)."""
        return self.chunk_bytes // self.block_bytes
