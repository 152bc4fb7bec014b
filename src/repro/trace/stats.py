"""Trace characterisation statistics (drives Figure 2 of the paper).

The paper's Observation 1 characterises production workloads by two
marginals: the per-volume average request rate (Fig 2a) and the write
request-size distribution (Fig 2b).  This module computes both, plus
:func:`cdf_at`, the empirical CDF that Fig 9 reads padding shares off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.units import BLOCK_SIZE, KiB, MICROS_PER_SEC
from repro.trace.model import Trace


@dataclass(frozen=True)
class TraceStats:
    """Summary characteristics of one trace (one volume)."""

    volume: str
    num_requests: int
    num_writes: int
    duration_us: int
    avg_request_rate: float          # requests / second
    write_size_blocks: np.ndarray    # per-write sizes, blocks
    footprint_blocks: int            # unique blocks written

    @property
    def write_ratio(self) -> float:
        if self.num_requests == 0:
            return 0.0
        return self.num_writes / self.num_requests

    def write_size_fraction_le(self, size_bytes: int) -> float:
        """Fraction of writes no larger than ``size_bytes`` (paper reports
        the <= 8 KiB and > 32 KiB shares)."""
        if self.write_size_blocks.size == 0:
            return 0.0
        limit_blocks = size_bytes // BLOCK_SIZE
        return float(np.mean(self.write_size_blocks <= limit_blocks))

    def write_size_fraction_gt(self, size_bytes: int) -> float:
        return 1.0 - self.write_size_fraction_le(size_bytes)


def compute_stats(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for one trace."""
    writes = trace.writes()
    dur = trace.duration_us
    rate = (len(trace) / (dur / MICROS_PER_SEC)) if dur > 0 else float(len(trace))
    return TraceStats(
        volume=trace.volume,
        num_requests=len(trace),
        num_writes=len(writes),
        duration_us=dur,
        avg_request_rate=rate,
        write_size_blocks=writes.sizes.copy(),
        footprint_blocks=trace.unique_write_blocks(),
    )


def cdf_at(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` at each of ``points``."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        return np.zeros(len(points))
    return np.searchsorted(v, np.asarray(points, dtype=float),
                           side="right") / v.size


def write_size_distribution(stats: list[TraceStats]) -> dict[str, float]:
    """Fig 2b summary: pooled write-size shares at the paper's breakpoints."""
    sizes = np.concatenate(
        [s.write_size_blocks for s in stats if s.write_size_blocks.size]
    ) if stats else np.empty(0)
    if sizes.size == 0:
        return {"le_8KiB": 0.0, "le_32KiB": 0.0, "gt_32KiB": 0.0}
    return {
        "le_8KiB": float(np.mean(sizes * BLOCK_SIZE <= 8 * KiB)),
        "le_32KiB": float(np.mean(sizes * BLOCK_SIZE <= 32 * KiB)),
        "gt_32KiB": float(np.mean(sizes * BLOCK_SIZE > 32 * KiB)),
    }
