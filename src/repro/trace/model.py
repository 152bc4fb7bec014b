"""Struct-of-arrays block I/O trace container.

A trace is a time-ordered sequence of block requests.  Offsets and sizes are
expressed in 4 KiB blocks (the LSS request unit, paper §2.1); timestamps are
integer microseconds.  The struct-of-arrays layout keeps replay loops and
statistics vectorisable with NumPy instead of allocating per-request Python
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.common.errors import TraceFormatError

#: Operation codes stored in :attr:`Trace.ops`.
OP_READ: int = 0
OP_WRITE: int = 1


@dataclass
class Trace:
    """A block-level I/O trace in struct-of-arrays form.

    Attributes:
        timestamps: int64 microseconds, non-decreasing.
        ops: uint8, each ``OP_READ`` or ``OP_WRITE``.
        offsets: int64 starting LBA (in blocks) of each request.
        sizes: int64 request length in blocks (>= 1).
        volume: optional volume/device label for provenance.
    """

    timestamps: np.ndarray
    ops: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    volume: str = "anonymous"

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.ops = np.asarray(self.ops, dtype=np.uint8)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, volume: str = "anonymous") -> "Trace":
        """An empty trace (useful as a fold seed for :meth:`concat`)."""
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.astype(np.uint8), z.copy(), z.copy(), volume=volume)

    @classmethod
    def from_rows(
        cls,
        rows: list[tuple[int, int, int, int]],
        volume: str = "anonymous",
    ) -> "Trace":
        """Build from ``(timestamp_us, op, offset_blocks, size_blocks)`` rows."""
        if not rows:
            return cls.empty(volume)
        arr = np.asarray(rows, dtype=np.int64)
        return cls(arr[:, 0], arr[:, 1].astype(np.uint8), arr[:, 2], arr[:, 3],
                   volume=volume)

    @staticmethod
    def concat(traces: list["Trace"], volume: str | None = None) -> "Trace":
        """Concatenate and time-sort several traces into one.

        Ties are broken by the order the traces are given (stable sort), so
        merging per-volume streams is deterministic.
        """
        if not traces:
            return Trace.empty(volume or "anonymous")
        ts = np.concatenate([t.timestamps for t in traces])
        ops = np.concatenate([t.ops for t in traces])
        off = np.concatenate([t.offsets for t in traces])
        sz = np.concatenate([t.sizes for t in traces])
        order = np.argsort(ts, kind="stable")
        return Trace(ts[order], ops[order], off[order], sz[order],
                     volume=volume or "+".join(t.volume for t in traces))

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def __getitem__(self, idx: slice) -> "Trace":
        if not isinstance(idx, slice):
            raise TypeError("Trace supports slice indexing only")
        return Trace(self.timestamps[idx], self.ops[idx], self.offsets[idx],
                     self.sizes[idx], volume=self.volume)

    def iter_requests(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(timestamp, op, offset, size)`` tuples (slow path; prefer
        array access in hot loops)."""
        for i in range(len(self)):
            yield (int(self.timestamps[i]), int(self.ops[i]),
                   int(self.offsets[i]), int(self.sizes[i]))

    # ------------------------------------------------------------------
    # validation and derived quantities
    # ------------------------------------------------------------------
    def validate(self) -> "Trace":
        """Check internal consistency; raise :class:`TraceFormatError`."""
        n = len(self)
        for name in ("ops", "offsets", "sizes"):
            if getattr(self, name).shape[0] != n:
                raise TraceFormatError(
                    f"column {name!r} length != timestamps length")
        if n:
            if np.any(np.diff(self.timestamps) < 0):
                raise TraceFormatError("timestamps are not non-decreasing")
            if np.any(self.sizes < 1):
                raise TraceFormatError("request sizes must be >= 1 block")
            if np.any(self.offsets < 0):
                raise TraceFormatError("negative offset")
            if np.any((self.ops != OP_READ) & (self.ops != OP_WRITE)):
                raise TraceFormatError("unknown op code")
        return self

    @property
    def duration_us(self) -> int:
        """Trace span in microseconds (0 for traces with < 2 requests)."""
        if len(self) < 2:
            return 0
        return int(self.timestamps[-1] - self.timestamps[0])

    def write_mask(self) -> np.ndarray:
        return self.ops == OP_WRITE

    def writes(self) -> "Trace":
        """A view of this trace containing only write requests."""
        m = self.write_mask()
        return Trace(self.timestamps[m], self.ops[m], self.offsets[m],
                     self.sizes[m], volume=self.volume)

    def total_write_blocks(self) -> int:
        return int(self.sizes[self.write_mask()].sum())

    def max_lba(self) -> int:
        """Highest block address touched by any request (-1 for empty)."""
        if not len(self):
            return -1
        return int((self.offsets + self.sizes).max() - 1)

    def unique_write_blocks(self) -> int:
        """Number of distinct LBAs written at least once (footprint)."""
        m = self.write_mask()
        if not m.any():
            return 0
        off, sz = self.offsets[m], self.sizes[m]
        seen = np.zeros(int((off + sz).max()), dtype=bool)
        # Mark [off, off+sz) ranges via difference array, vectorised.
        diff = np.zeros(seen.shape[0] + 1, dtype=np.int64)
        np.add.at(diff, off, 1)
        np.add.at(diff, off + sz, -1)
        return int(np.count_nonzero(np.cumsum(diff[:-1]) > 0))
