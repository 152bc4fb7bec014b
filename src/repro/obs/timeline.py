"""Replay timelines: the recorder's one time series.

End-of-run :class:`~repro.lss.stats.StoreStats` answers *where a run
ended up*; a :class:`ReplayTimeline` answers *how it got there*.  Every
:class:`~repro.obs.recorder.ObsRecorder` owns one and samples the store
every ``every_blocks`` accepted user blocks — the traffic counters,
write amplification, zero-padding ratio, GC traffic ratio, the placement
policy's threshold position (NaN for policies without one), free
segments, and per-group occupancy — into one growing NumPy matrix, then
appends one exact final row at finalize.  The result is a figure-ready
timeseries (the paper's §3.2 threshold trajectory and §4 WA curves) at a
few hundred bytes per sample.  Sampling keys off the user-block clock:
the recorder forwards :meth:`ReplayTimeline.next_sample_seq` to the
store, whose replay loop settles exactly there, so every row equals the
one a per-block replay takes.

:func:`~repro.obs.exporters.write_timeline_csv` exports it.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

#: Default sampling period in user blocks.
TIMELINE_EVERY = 1024

#: Columns every timeline starts with; one ``occ_<name>`` column per
#: group follows.
BASE_COLUMNS: tuple[str, ...] = (
    "user_blocks", "time_us", "flash_blocks", "gc_blocks",
    "padding_blocks", "shadow_blocks", "gc_passes", "write_amplification",
    "padding_ratio", "gc_ratio", "threshold", "free_segments",
)

#: Cumulative attribution columns appended when the bound store carries
#: an enabled attribution recorder.
ATTR_COLUMNS: tuple[str, ...] = (
    "attr_gc_victims", "attr_migrated_user_origin",
    "attr_migrated_gc_origin",
)


def cell(value: float) -> float | int | None:
    """CSV/JSON-friendly cell: integral floats as ints, NaN as None."""
    if math.isnan(value):
        return None
    return int(value) if value.is_integer() else value


class ReplayTimeline:
    """Periodic per-N-blocks store snapshots as a float64 matrix.

    Args:
        every_blocks: sampling period on the user-block clock.
    """

    def __init__(self, every_blocks: int = TIMELINE_EVERY) -> None:
        if every_blocks < 1:
            raise ValueError("every_blocks must be >= 1")
        self.every_blocks = every_blocks
        self._store: Any = None
        self._attr: Any = None
        self._columns: tuple[str, ...] = BASE_COLUMNS
        self._buf = np.empty((0, len(BASE_COLUMNS)), dtype=np.float64)
        self._n = 0
        self._next = every_blocks

    # ------------------------------------------------------------------
    # lifecycle (driven by the owning recorder)
    # ------------------------------------------------------------------
    def bind(self, store: Any) -> None:
        """Attach to a store; resets any previously collected rows.

        When the store carries an enabled attribution recorder, three
        ``attr_*`` columns (GC victims and migrated-block origin mix,
        cumulative) join the timeline so GC provenance can be read off
        the same time axis as WA.
        """
        self._store = store
        attr = getattr(store, "attribution", None)
        self._attr = attr if attr is not None and attr.enabled else None
        occ = tuple(f"occ_{g.spec.name}" for g in store.groups)
        attr_cols = ATTR_COLUMNS if self._attr is not None else ()
        self._columns = BASE_COLUMNS + occ + attr_cols
        self._buf = np.empty((64, len(self._columns)), dtype=np.float64)
        self._n = 0
        self._next = self.every_blocks

    def next_sample_seq(self) -> int:
        """The user-block count at which the next row is due."""
        return self._next

    def sample(self, now_us: int) -> None:
        """Append a row and schedule the next one a period later."""
        self._append(now_us)
        blocks = self._store.stats.user_blocks_requested
        self._next = (blocks // self.every_blocks + 1) * self.every_blocks

    def finalize(self, now_us: int) -> None:
        """Append the exact end-of-run row (post force-flush)."""
        self._append(now_us)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def rows(self) -> np.ndarray:
        """View of the collected rows, shape ``(n, len(columns))``."""
        return self._buf[:self._n]

    def __len__(self) -> int:
        return self._n

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Column-name -> 1-D array copies (notebook/figure consumption)."""
        rows = self.rows
        return {name: rows[:, i].copy()
                for i, name in enumerate(self._columns)}

    def final(self) -> dict | None:
        """The last row as a JSON-safe dict (:func:`cell` per value), or
        ``None`` before the first row."""
        if not self._n:
            return None
        return {name: cell(v) for name, v
                in zip(self._columns, self._buf[self._n - 1].tolist())}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _append(self, now_us: int) -> None:
        store = self._store
        stats = store.stats
        row = [
            float(stats.user_blocks_requested),
            float(now_us),
            float(stats.flash_blocks_written),
            float(stats.gc_blocks_written),
            float(stats.padding_blocks_written),
            float(stats.shadow_blocks_written),
            float(stats.gc_passes),
            float(stats.write_amplification()),
            float(stats.padding_traffic_ratio()),
            float(stats.gc_traffic_ratio()),
            float(getattr(store.policy, "threshold", np.nan)),
            float(store.pool.free_segments),
        ]
        row.extend(store.group_occupancy().tolist())
        if self._attr is not None:
            row.extend((float(self._attr.total_victims),
                        float(self._attr.total_migrated_user_origin),
                        float(self._attr.total_migrated_gc_origin)))
        if self._n == self._buf.shape[0]:
            grown = np.empty((max(64, self._buf.shape[0] * 2),
                              self._buf.shape[1]), dtype=np.float64)
            grown[:self._n] = self._buf[:self._n]
            self._buf = grown
        self._buf[self._n] = row
        self._n += 1


__all__ = ["ATTR_COLUMNS", "BASE_COLUMNS", "TIMELINE_EVERY",
           "ReplayTimeline", "cell"]
