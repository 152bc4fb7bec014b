"""Physical segment pool backed by NumPy struct-of-arrays.

Per the HPC guides, no per-block Python objects exist: block ownership and
validity live in two 2-D arrays indexed ``[segment, slot]``, and per-segment
metadata in flat arrays.  A *location* is encoded as
``segment * segment_blocks + slot``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CapacityError
from repro.common.views import ScalarViews

SEG_FREE: int = 0
SEG_OPEN: int = 1
SEG_SEALED: int = 2

NO_LBA: int = -1


class SegmentPool(ScalarViews):
    """Fixed pool of physical segments with slot-level bookkeeping.

    Per-segment metadata lives in NumPy arrays for the vectorised paths
    (victim ranking, settle, audits); scalar code reads and writes it
    through the ``*_mv`` views (:class:`~repro.common.views.ScalarViews`).
    ``fill`` is a plain list: nothing reads it in bulk.
    """

    __slots__ = ("num_segments", "segment_blocks", "slot_lba", "slot_valid",
                 "slot_seq", "_append_seq", "state", "group", "fill",
                 "valid_count", "created_seq", "sealed_seq", "state_mv",
                 "group_mv", "valid_count_mv", "created_seq_mv",
                 "sealed_seq_mv", "garbage_seals", "_free")

    _scalar_views = {"state_mv": "state", "group_mv": "group",
                     "valid_count_mv": "valid_count",
                     "created_seq_mv": "created_seq",
                     "sealed_seq_mv": "sealed_seq"}

    def __init__(self, num_segments: int, segment_blocks: int) -> None:
        if num_segments <= 0 or segment_blocks <= 0:
            raise ValueError("pool dimensions must be positive")
        self.num_segments = num_segments
        self.segment_blocks = segment_blocks

        self.slot_lba = np.full((num_segments, segment_blocks), NO_LBA,
                                dtype=np.int64)
        self.slot_valid = np.zeros((num_segments, segment_blocks), dtype=bool)
        #: Monotone per-slot write stamp — the on-media ordering metadata a
        #: real LSS persists so crash recovery can replay the log and let
        #: the newest copy of each LBA win (see ``lss.recovery``).
        self.slot_seq = np.zeros((num_segments, segment_blocks),
                                 dtype=np.int64)
        self._append_seq = 0

        self.state = np.full(num_segments, SEG_FREE, dtype=np.uint8)
        self.group = np.full(num_segments, -1, dtype=np.int16)
        self.fill = [0] * num_segments
        self.valid_count = np.zeros(num_segments, dtype=np.int32)
        self.created_seq = np.zeros(num_segments, dtype=np.int64)
        self.sealed_seq = np.zeros(num_segments, dtype=np.int64)
        self._bind_scalar_views()
        #: Seals that left garbage behind (``valid_count`` below capacity):
        #: within one GC run, only such a seal can add a productive victim
        #: (see :meth:`repro.lss.victim.VictimPolicy.rank`).  Only its
        #: moves during a run are read; a user seal between settles also
        #: counts its not yet booked slots.
        self.garbage_seals = 0

        self._free = list(range(num_segments - 1, -1, -1))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def free_segments(self) -> int:
        return len(self._free)

    def allocate(self, group: int, now_seq: int) -> int:
        """Take a free segment, mark it OPEN for ``group``."""
        if not self._free:
            raise CapacityError("segment pool exhausted (GC watermarks "
                                "cannot be honoured)")
        seg = self._free.pop()
        self.state_mv[seg] = SEG_OPEN
        self.group_mv[seg] = group
        self.fill[seg] = 0
        self.valid_count_mv[seg] = 0
        self.created_seq_mv[seg] = now_seq
        return seg

    def seal(self, seg: int, now_seq: int) -> None:
        if self.state_mv[seg] != SEG_OPEN:
            raise ValueError(f"segment {seg} is not open")
        if self.fill[seg] != self.segment_blocks:
            raise ValueError(f"segment {seg} sealed before it was full")
        self.state_mv[seg] = SEG_SEALED
        self.sealed_seq_mv[seg] = now_seq
        if self.valid_count_mv[seg] < self.segment_blocks:
            self.garbage_seals += 1

    def reclaim(self, seg: int) -> None:
        """Erase a sealed segment and return it to the free pool."""
        if self.state_mv[seg] != SEG_SEALED:
            raise ValueError(f"segment {seg} is not sealed")
        if self.valid_count_mv[seg] != 0:
            raise ValueError(
                f"segment {seg} still holds {self.valid_count_mv[seg]} "
                f"valid blocks; migrate them before reclaiming")
        self.slot_lba[seg, :] = NO_LBA
        self.slot_valid[seg, :] = False
        self.slot_seq[seg, :] = 0
        self.state_mv[seg] = SEG_FREE
        self.group_mv[seg] = -1
        self.fill[seg] = 0
        self._free.append(seg)

    # ------------------------------------------------------------------
    # slot operations
    # ------------------------------------------------------------------
    def reserve_slot(self, seg: int, n: int = 1) -> int:
        """Take the next ``n`` slots of open segment ``seg`` (advance its
        fill pointer) and return the first one's encoded location.  The
        slots stay dead until :meth:`fill_slot` / :meth:`fill_slots` books
        LBAs into them."""
        slot = self.fill[seg]
        if slot + n > self.segment_blocks:
            raise CapacityError(f"segment {seg} overflow")
        self.fill[seg] = slot + n
        return seg * self.segment_blocks + slot

    def fill_slot(self, loc: int, lba: int) -> None:
        """Book ``lba`` into the reserved slot at ``loc``."""
        seg, slot = divmod(loc, self.segment_blocks)
        self.slot_lba[seg, slot] = lba
        self.slot_valid[seg, slot] = True
        self._append_seq += 1
        self.slot_seq[seg, slot] = self._append_seq
        self.valid_count_mv[seg] += 1

    def fill_slots(self, locs: np.ndarray, lbas: np.ndarray) -> None:
        """Vectorized :meth:`fill_slot` over distinct reserved slots, in
        reservation order (the ``slot_seq`` stamps follow it)."""
        n = int(locs.shape[0])
        self.slot_lba.reshape(-1)[locs] = lbas
        self.slot_valid.reshape(-1)[locs] = True
        s0 = self._append_seq + 1
        self._append_seq += n
        self.slot_seq.reshape(-1)[locs] = np.arange(s0, s0 + n,
                                                    dtype=np.int64)
        per_seg = np.bincount(locs // self.segment_blocks,
                              minlength=self.num_segments)
        self.valid_count += per_seg.astype(self.valid_count.dtype)

    def append_block(self, seg: int, lba: int) -> int:
        """Place ``lba`` into the next slot of open segment ``seg``;
        return the encoded location."""
        loc = self.reserve_slot(seg)
        self.fill_slot(loc, lba)
        return loc

    def append_many(self, seg: int, lbas: np.ndarray) -> int:
        """Place a run of LBAs into consecutive slots of open segment
        ``seg``; return the first slot index.

        Equivalent to calling :meth:`append_block` once per LBA (including
        the per-slot ``slot_seq`` stamps), but with slice writes.  The run
        must fit in the segment's remaining capacity.
        """
        n = int(lbas.shape[0])
        slot = self.reserve_slot(seg, n) - seg * self.segment_blocks
        self.slot_lba[seg, slot:slot + n] = lbas
        self.slot_valid[seg, slot:slot + n] = True
        s0 = self._append_seq + 1
        self._append_seq += n
        self.slot_seq[seg, slot:slot + n] = np.arange(s0, s0 + n,
                                                      dtype=np.int64)
        self.valid_count_mv[seg] += n
        return slot

    def append_padding(self, seg: int, nblocks: int) -> None:
        """Consume ``nblocks`` slots with dead zero-padding."""
        slot = self.fill[seg]
        if slot + nblocks > self.segment_blocks:
            raise CapacityError(f"segment {seg} padding overflow")
        # slots keep NO_LBA / invalid: dead on arrival.
        self.fill[seg] = slot + nblocks

    def invalidate(self, loc: int) -> None:
        """Mark the block at encoded location ``loc`` invalid."""
        seg, slot = divmod(loc, self.segment_blocks)
        if not self.slot_valid[seg, slot]:
            raise ValueError(f"location {loc} already invalid")
        self.slot_valid[seg, slot] = False
        self.valid_count_mv[seg] -= 1

    def invalidate_many(self, locs: np.ndarray) -> None:
        """Vectorized :meth:`invalidate` over distinct encoded locations."""
        flat_valid = self.slot_valid.reshape(-1)
        state = flat_valid[locs]
        if not state.all():
            bad = int(locs[np.flatnonzero(~state)[0]])
            raise ValueError(f"location {bad} already invalid")
        flat_valid[locs] = False
        per_seg = np.bincount(locs // self.segment_blocks,
                              minlength=self.num_segments)
        self.valid_count -= per_seg.astype(self.valid_count.dtype)

    def invalidate_all(self, seg: int) -> None:
        """Invalidate every valid block of ``seg`` in one row write.

        Equivalent to calling :meth:`invalidate` for each of the
        segment's valid slots — used by GC, which migrates a
        victim's full valid set and therefore knows the survivor count
        is zero without per-slot bookkeeping.
        """
        self.slot_valid[seg, :] = False
        self.valid_count_mv[seg] = 0

    def valid_lbas(self, seg: int) -> np.ndarray:
        """LBAs of the valid blocks in ``seg`` (in slot order)."""
        mask = self.slot_valid[seg]
        return self.slot_lba[seg][mask]

    def sealed_segments(self) -> np.ndarray:
        return np.flatnonzero(self.state == SEG_SEALED)

    def utilization(self, seg: int) -> float:
        """Valid fraction of a segment's capacity."""
        return self.valid_count_mv[seg] / self.segment_blocks

    def check_invariants(self) -> None:
        """Expensive consistency check used by tests and property-based
        testing; never called in hot paths."""
        for seg in range(self.num_segments):
            vc = int(np.count_nonzero(self.slot_valid[seg]))
            if vc != int(self.valid_count[seg]):
                raise AssertionError(
                    f"segment {seg}: cached valid_count {self.valid_count[seg]}"
                    f" != actual {vc}")
            if self.state[seg] == SEG_FREE:
                if vc != 0 or self.fill[seg] != 0:
                    raise AssertionError(f"free segment {seg} not empty")
            if np.any(self.slot_valid[seg, self.fill[seg]:]):
                raise AssertionError(
                    f"segment {seg}: valid slot beyond fill pointer")
