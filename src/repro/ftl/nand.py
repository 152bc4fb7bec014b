"""Page-mapped FTL over a NAND flash model with multi-stream support.

The device exposes a flat page address space (one page = one 4 KiB block of
the array).  Writes are routed to the *active flash block* of their stream;
when no free flash block remains above the reserve, greedy device-level GC
migrates the valid pages of the min-valid flash block (into a dedicated GC
stream) and erases it.  In-device WA = (host + migrated pages) / host pages.

Streams are the whole point: if the host segregates data whose lifetimes
differ into different streams, flash blocks die wholesale and device GC
finds empty victims; if everything shares one stream, lifetimes interleave
inside flash blocks and every erase pays migration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import CapacityError, ConfigError

_NO_PAGE = -1
#: Free-block watermark that triggers device GC.
GC_RESERVE_BLOCKS = 2


@dataclass(frozen=True)
class FlashGeometry:
    """NAND shape: ``num_blocks`` flash blocks of ``pages_per_block``."""

    num_blocks: int
    pages_per_block: int = 64

    def __post_init__(self) -> None:
        if self.num_blocks < 4:
            raise ConfigError("need at least 4 flash blocks")
        if self.pages_per_block < 1:
            raise ConfigError("pages_per_block must be >= 1")

    @property
    def total_pages(self) -> int:
        return self.num_blocks * self.pages_per_block


class PageMappedFTL:
    """Page-level mapping with per-stream allocation and greedy device GC.

    Args:
        geometry: NAND shape; must over-provision the logical page space.
        logical_pages: host-visible page address space.
        num_streams: write streams (stream ids in ``[0, num_streams)``);
            internal GC migrations use their own reserved stream.
    """

    def __init__(self, geometry: FlashGeometry, logical_pages: int,
                 num_streams: int = 1) -> None:
        if logical_pages <= 0:
            raise ConfigError("logical_pages must be positive")
        min_need = logical_pages + \
            (num_streams + 1 + GC_RESERVE_BLOCKS) * geometry.pages_per_block
        if geometry.total_pages < min_need:
            raise ConfigError(
                f"flash too small: {geometry.total_pages} pages < "
                f"{min_need} needed for {logical_pages} logical pages, "
                f"{num_streams} streams and the GC reserve")
        if num_streams < 1:
            raise ConfigError("num_streams must be >= 1")
        self.geometry = geometry
        self.logical_pages = logical_pages
        self.num_streams = num_streams

        g = geometry
        self._page_lpn = np.full(g.total_pages, _NO_PAGE, dtype=np.int64)
        self._page_valid = np.zeros(g.total_pages, dtype=bool)
        self._block_valid = np.zeros(g.num_blocks, dtype=np.int32)
        self._block_fill = np.zeros(g.num_blocks, dtype=np.int32)
        self._mapping = np.full(logical_pages, _NO_PAGE, dtype=np.int64)

        self._free_blocks = list(range(g.num_blocks - 1, -1, -1))
        self._active: dict[int, int | None] = {
            s: None for s in range(num_streams)}
        self._gc_stream = num_streams  # internal migration stream
        self._active[self._gc_stream] = None

        self.host_pages = 0
        self.migrated_pages = 0
        self.erases = 0

    # ------------------------------------------------------------------
    # host interface
    # ------------------------------------------------------------------
    def write(self, lpn: int, stream: int = 0) -> None:
        """Program one logical page via ``stream``."""
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"lpn {lpn} out of range")
        if not 0 <= stream < self.num_streams:
            raise ValueError(f"stream {stream} out of range")
        self._invalidate(lpn)
        # Reclaim before programming so the reserve always covers the GC's
        # own migration appetite.
        self._maybe_gc()
        self._program(lpn, stream)
        self.host_pages += 1

    def trim(self, lpn_start: int, count: int) -> None:
        """Discard a logical page range (segment erase from the LSS)."""
        for lpn in range(lpn_start, lpn_start + count):
            if 0 <= lpn < self.logical_pages:
                self._invalidate(lpn)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _invalidate(self, lpn: int) -> None:
        ppn = self._mapping[lpn]
        if ppn != _NO_PAGE:
            self._page_valid[ppn] = False
            self._block_valid[ppn // self.geometry.pages_per_block] -= 1
            self._mapping[lpn] = _NO_PAGE

    def _program(self, lpn: int, stream: int) -> None:
        ppb = self.geometry.pages_per_block
        blk = self._active[stream]
        if blk is None or self._block_fill[blk] >= ppb:
            blk = self._take_free_block()
            self._active[stream] = blk
        ppn = blk * ppb + int(self._block_fill[blk])
        self._block_fill[blk] += 1
        self._page_lpn[ppn] = lpn
        self._page_valid[ppn] = True
        self._block_valid[blk] += 1
        self._mapping[lpn] = ppn

    def _take_free_block(self) -> int:
        if not self._free_blocks:
            raise CapacityError("flash device out of free blocks")
        return self._free_blocks.pop()

    def _maybe_gc(self) -> None:
        while len(self._free_blocks) <= GC_RESERVE_BLOCKS:
            victim = self._pick_victim()
            if victim is None:
                break
            self._clean(victim)

    def _pick_victim(self) -> int | None:
        ppb = self.geometry.pages_per_block
        active = {b for b in self._active.values() if b is not None}
        candidates = [b for b in range(self.geometry.num_blocks)
                      if b not in active and self._block_fill[b] == ppb
                      and self._block_valid[b] < ppb]
        if not candidates:
            return None
        return min(candidates, key=lambda b: int(self._block_valid[b]))

    def _clean(self, victim: int) -> None:
        ppb = self.geometry.pages_per_block
        base = victim * ppb
        for ppn in range(base, base + ppb):
            if self._page_valid[ppn]:
                lpn = int(self._page_lpn[ppn])
                self._page_valid[ppn] = False
                self._block_valid[victim] -= 1
                self._mapping[lpn] = _NO_PAGE
                self._program(lpn, self._gc_stream)
                self.migrated_pages += 1
        self._page_lpn[base:base + ppb] = _NO_PAGE
        self._block_fill[victim] = 0
        self._block_valid[victim] = 0
        self.erases += 1
        self._free_blocks.append(victim)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def device_write_amplification(self) -> float:
        """(host + migrated) / host page programs."""
        if self.host_pages == 0:
            return 0.0
        return (self.host_pages + self.migrated_pages) / self.host_pages

    def check_invariants(self) -> None:
        """Expensive consistency check for tests."""
        ppb = self.geometry.pages_per_block
        for blk in range(self.geometry.num_blocks):
            lo, hi = blk * ppb, (blk + 1) * ppb
            vc = int(np.count_nonzero(self._page_valid[lo:hi]))
            if vc != int(self._block_valid[blk]):
                raise AssertionError(f"flash block {blk} valid-count drift")
        mapped = np.flatnonzero(self._mapping != _NO_PAGE)
        for lpn in mapped:
            ppn = int(self._mapping[lpn])
            if not self._page_valid[ppn] or self._page_lpn[ppn] != lpn:
                raise AssertionError(f"lpn {lpn} mapping corrupt")
        if int(self._page_valid.sum()) != mapped.size:
            raise AssertionError("valid pages != mapped lpns")
