"""SSD-array substrate: chunk geometry, RAID-5 parity accounting, and the
chunk-coalescing buffer with the zero-padding SLA."""

from repro.array.chunk import ChunkGeometry
from repro.array.raid5 import Raid5Accounting, Raid5Config
from repro.array.coalescing import ChunkFlush, CoalescingBuffer, FlushReason

__all__ = [
    "ChunkGeometry",
    "Raid5Config",
    "Raid5Accounting",
    "CoalescingBuffer",
    "ChunkFlush",
    "FlushReason",
]
