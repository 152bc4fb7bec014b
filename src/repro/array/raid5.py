"""RAID-5 stripe and parity accounting.

The simulator does not move real bytes; what matters for the paper's metrics
is *how many chunks* reach each device class.  Chunks are laid out
round-robin across the data columns of a stripe; each write I/O pays one
parity-chunk write per stripe it touches (full stripes pay exactly one,
partial stripes pay the parity-update penalty the log-structured layout
amortises by writing whole stripes whenever possible — paper Fig 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class Raid5Config:
    """RAID-5 shape: ``num_devices`` total, one parity column per stripe."""

    num_devices: int = 4

    def __post_init__(self) -> None:
        if self.num_devices < 3:
            raise ConfigError("RAID-5 requires at least 3 devices")

    @property
    def data_columns(self) -> int:
        return self.num_devices - 1


@dataclass(slots=True)
class Raid5Accounting:
    """Streaming accounting of chunk writes onto a RAID-5 array.

    Each ``add_chunks(n)`` call models one write I/O of ``n`` sequentially
    appended data chunks and returns the number of parity-chunk writes it
    incurs: one per stripe the I/O touches.  The stripe fill position
    persists across calls so the append log walks the stripes in order.
    """

    config: Raid5Config = field(default_factory=Raid5Config)
    data_chunks: int = 0
    parity_chunks: int = 0
    _stripe_fill: int = 0

    def add_chunks(self, n: int) -> int:
        """Record an ``n``-chunk write I/O; return parity chunks written."""
        if n < 0:
            raise ValueError(f"negative chunk count {n}")
        if n == 0:
            return 0
        cols = self.config.data_columns
        # Stripes touched by [fill, fill + n) within the current stripe walk.
        first = self._stripe_fill // cols
        last = (self._stripe_fill + n - 1) // cols
        parity = last - first + 1
        self._stripe_fill = (self._stripe_fill + n) % cols
        self.data_chunks += n
        self.parity_chunks += parity
        return parity

    def add_chunk_ios(self, n: int) -> int:
        """Record ``n`` separate single-chunk write I/Os at once.

        Bit-equivalent to ``n`` calls of ``add_chunks(1)`` — each one-chunk
        I/O touches exactly one stripe, so parity grows by ``n`` and the
        stripe walk advances ``n`` positions.  Used to account a GC
        append run's chunk flushes in bulk.
        """
        if n < 0:
            raise ValueError(f"negative chunk count {n}")
        if n == 0:
            return 0
        self.data_chunks += n
        self.parity_chunks += n
        self._stripe_fill = (self._stripe_fill + n) % self.config.data_columns
        return n

    def parity_overhead(self) -> float:
        """Parity chunks per data chunk (→ 1/(D−1) for full-stripe I/Os)."""
        if self.data_chunks == 0:
            return 0.0
        return self.parity_chunks / self.data_chunks
