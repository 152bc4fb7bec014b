"""Pluggable invariant auditing for the fast store.

Extends ``LogStructuredStore.check_invariants`` into a catalogue of named,
independently re-derived consistency laws, runnable on a configurable
cadence while a replay is in flight.  Each check raises
:class:`~repro.common.errors.InvariantViolation` naming the broken law;
every audit fires the store's ``audited`` event (a recorder turns a
violation into an ``audit_violation`` event, so it shows up in exported
traces).

The invariant catalogue:

``mapping-bijection``
    Every mapped LBA points at a valid slot holding that LBA, no two LBAs
    share a slot, and every valid slot is referenced by the mapping.
``segment-valid-counts``
    The cached per-segment ``valid_count`` equals both the slot-level truth
    and the number of mapping entries landing in that segment.
``group-occupancy``
    Per-group resident blocks sum to the mapped-LBA count; free segments
    carry no group, no fill and no valid slots.
``coalescing-bounds``
    Pending chunks never reach capacity, closed groups hold no pending
    blocks, the open segment's fill is chunk-phase-aligned with the pending
    chunk, no SLA deadline lies in the past, and zero-padding per group is
    bounded by its padded-flush count.
``traffic-conservation``
    The paper's conservation law (§1/§3): device writes = user + GC +
    shadow + padding; requested user blocks equal the store's logical
    clock and equal flushed-plus-pending user blocks; GC migrations equal
    flushed-plus-pending GC blocks.
``raid-parity-accounting``
    RAID-5 accounting matches an independent re-derivation: data chunks
    equal chunk flushes, the stripe cursor equals ``data % columns``, and
    parity lies within the exact bounds of a sequential stripe walk.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.common.errors import InvariantViolation
from repro.common.observer import NO_SAMPLE, StoreObserver
from repro.lss.group import APPEND_GC, APPEND_USER
from repro.lss.segment import SEG_FREE
from repro.lss.store import UNMAPPED

if TYPE_CHECKING:  # pragma: no cover
    from repro.lss.store import LogStructuredStore

CheckFn = Callable[["LogStructuredStore"], None]


def _fail(invariant: str, detail: str) -> None:
    raise InvariantViolation(invariant, detail)


# ----------------------------------------------------------------------
# the invariant catalogue
# ----------------------------------------------------------------------
def check_mapping_bijection(store: "LogStructuredStore") -> None:
    name = "mapping-bijection"
    pool = store.pool
    mapped = np.flatnonzero(store.mapping != UNMAPPED)
    locs = store.mapping[mapped]
    if locs.size and (locs.min() < 0 or
                      locs.max() >= pool.num_segments * pool.segment_blocks):
        _fail(name, "mapping entry outside the physical pool")
    seg, slot = np.divmod(locs, pool.segment_blocks)
    bad = np.flatnonzero(~pool.slot_valid[seg, slot])
    if bad.size:
        lba = int(mapped[bad[0]])
        _fail(name, f"lba {lba} maps to invalid slot "
                    f"{int(store.mapping[lba])}")
    wrong = np.flatnonzero(pool.slot_lba[seg, slot] != mapped)
    if wrong.size:
        lba = int(mapped[wrong[0]])
        _fail(name, f"lba {lba} maps to a slot holding a different lba")
    total_valid = int(np.count_nonzero(pool.slot_valid))
    if total_valid != mapped.size:
        _fail(name, f"{total_valid} valid slots but {mapped.size} mapped "
                    f"LBAs (orphaned valid slot)")


def check_segment_valid_counts(store: "LogStructuredStore") -> None:
    name = "segment-valid-counts"
    pool = store.pool
    actual = np.count_nonzero(pool.slot_valid, axis=1)
    diff = np.flatnonzero(actual != pool.valid_count)
    if diff.size:
        s = int(diff[0])
        _fail(name, f"segment {s}: cached valid_count "
                    f"{int(pool.valid_count[s])} != slot truth "
                    f"{int(actual[s])}")
    mapped = np.flatnonzero(store.mapping != UNMAPPED)
    seg_of = store.mapping[mapped] // pool.segment_blocks
    per_seg = np.bincount(seg_of, minlength=pool.num_segments)
    diff = np.flatnonzero(per_seg != pool.valid_count)
    if diff.size:
        s = int(diff[0])
        _fail(name, f"segment {s}: {int(per_seg[s])} mapping entries but "
                    f"valid_count {int(pool.valid_count[s])}")


def check_group_occupancy(store: "LogStructuredStore") -> None:
    name = "group-occupancy"
    pool = store.pool
    free = pool.state == SEG_FREE
    fill = np.asarray(pool.fill)
    if np.any(pool.group[free] != -1):
        _fail(name, "free segment still assigned to a group")
    if np.any(fill[free] != 0) or np.any(pool.valid_count[free] != 0):
        _fail(name, "free segment with non-zero fill or valid count")
    if np.any(fill > pool.segment_blocks):
        _fail(name, "segment fill beyond capacity")
    occ = store.group_occupancy()
    mapped = int(np.count_nonzero(store.mapping != UNMAPPED))
    if int(occ.sum()) != mapped:
        _fail(name, f"group occupancy sums to {int(occ.sum())} but "
                    f"{mapped} LBAs are mapped")


def check_coalescing_bounds(store: "LogStructuredStore") -> None:
    name = "coalescing-bounds"
    chunk_blocks = store.config.chunk.chunk_blocks
    for group in store.groups:
        buf = group.buffer
        pending = buf.pending_blocks
        if pending >= chunk_blocks:
            _fail(name, f"group {group.gid}: {pending} pending blocks >= "
                        f"chunk capacity {chunk_blocks}")
        if group.open_seg is None:
            if pending:
                _fail(name, f"group {group.gid}: pending blocks with no "
                            f"open segment")
        else:
            fill = int(store.pool.fill[group.open_seg])
            if fill % chunk_blocks != pending:
                _fail(name, f"group {group.gid}: open-segment fill {fill} "
                            f"out of chunk phase with {pending} pending")
        deadline = buf.deadline_us
        if pending == 0 and deadline is not None:
            _fail(name, f"group {group.gid}: armed SLA timer on an empty "
                        f"chunk")
        if deadline is not None and deadline < store.now_us:
            _fail(name, f"group {group.gid}: SLA deadline {deadline} in "
                        f"the past (now {store.now_us})")
        t = group.traffic
        padded = t.deadline_flushes + t.forced_flushes
        if t.padding_blocks > padded * (chunk_blocks - 1):
            _fail(name, f"group {group.gid}: {t.padding_blocks} padding "
                        f"blocks exceed {padded} padded flushes x "
                        f"{chunk_blocks - 1}")


def _pending_by_kind(store: "LogStructuredStore") -> list[int]:
    """Pending blocks per append kind, summed over the groups' chunks."""
    return [sum(counts) for counts
            in zip(*(group.buffer.pending for group in store.groups))]


def check_traffic_conservation(store: "LogStructuredStore") -> None:
    name = "traffic-conservation"
    stats = store.stats
    for g in stats.groups:
        for key in ("user_blocks", "gc_blocks", "shadow_blocks",
                    "padding_blocks"):
            if getattr(g, key) < 0:
                _fail(name, f"group {g.name}: negative {key}")
    flash = stats.flash_blocks_written
    parts = (stats.user_blocks_written + stats.gc_blocks_written
             + stats.shadow_blocks_written + stats.padding_blocks_written)
    if flash != parts:
        _fail(name, f"device writes {flash} != user+gc+shadow+padding "
                    f"{parts}")
    if stats.user_blocks_requested != store.user_seq:
        _fail(name, f"{stats.user_blocks_requested} user blocks requested "
                    f"but logical clock at {store.user_seq}")
    pending = _pending_by_kind(store)
    if stats.user_blocks_written + pending[APPEND_USER] != \
            stats.user_blocks_requested:
        _fail(name, f"user blocks flushed {stats.user_blocks_written} + "
                    f"pending {pending[APPEND_USER]} != requested "
                    f"{stats.user_blocks_requested}")
    if stats.gc_blocks_written + pending[APPEND_GC] != \
            stats.gc_blocks_migrated:
        _fail(name, f"gc blocks flushed {stats.gc_blocks_written} + "
                    f"pending {pending[APPEND_GC]} != migrated "
                    f"{stats.gc_blocks_migrated}")


def check_raid_parity_accounting(store: "LogStructuredStore") -> None:
    name = "raid-parity-accounting"
    raid = store.stats.raid
    cols = raid.config.data_columns
    flushes = sum(g.chunk_flushes for g in store.stats.groups)
    if raid.data_chunks != flushes:
        _fail(name, f"{raid.data_chunks} data chunks accounted but "
                    f"{flushes} chunk flushes recorded")
    if raid._stripe_fill != raid.data_chunks % cols:
        _fail(name, f"stripe cursor {raid._stripe_fill} != data_chunks "
                    f"mod columns ({raid.data_chunks % cols})")
    if raid.data_chunks:
        lo = -(-raid.data_chunks // cols)  # ceil: at least one per stripe
        if not lo <= raid.parity_chunks <= raid.data_chunks:
            _fail(name, f"parity {raid.parity_chunks} outside "
                        f"[{lo}, {raid.data_chunks}]")
    elif raid.parity_chunks:
        _fail(name, "parity chunks written before any data chunk")


#: Name → check function; the auditor default runs all of them in order.
INVARIANT_CHECKS: dict[str, CheckFn] = {
    "mapping-bijection": check_mapping_bijection,
    "segment-valid-counts": check_segment_valid_counts,
    "group-occupancy": check_group_occupancy,
    "coalescing-bounds": check_coalescing_bounds,
    "traffic-conservation": check_traffic_conservation,
    "raid-parity-accounting": check_raid_parity_accounting,
}


class InvariantAuditor(StoreObserver):
    """Cadence-driven invariant auditing observer for one store.

    Pass an instance to ``LogStructuredStore(..., auditor=...)``: it hears
    every settled run of user writes (``replay`` settles at
    :meth:`next_sample_seq`) and the end of replay.  Every
    ``every_blocks`` user blocks (and at finalize) the auditor runs its
    check catalogue and fires the store's ``audited`` event once:
    ``audited(None, "", now_us)`` when every check passed, or, for the
    first violated invariant, ``audited(name, detail, now_us)`` just
    before :class:`InvariantViolation` is raised.

    Args:
        every_blocks: audit cadence in accepted user blocks (``0`` disables
            the cadence; only explicit :meth:`audit` / finalize runs).
        checks: names from :data:`INVARIANT_CHECKS` (default: all).
    """

    def __init__(self, every_blocks: int = 4096,
                 checks: Iterable[str] | None = None) -> None:
        if every_blocks < 0:
            raise ValueError("every_blocks must be >= 0")
        self.every_blocks = every_blocks
        names = list(INVARIANT_CHECKS) if checks is None else list(checks)
        unknown = [n for n in names if n not in INVARIANT_CHECKS]
        if unknown:
            raise ValueError(
                f"unknown invariant check(s) {unknown}; available: "
                f"{sorted(INVARIANT_CHECKS)}")
        self.check_names = names
        self.audits_run = 0
        self.violations = 0
        self._store = None
        self._rearm(0)

    def _rearm(self, user_seq: int) -> None:
        self._next = (user_seq + self.every_blocks if self.every_blocks
                      else NO_SAMPLE)

    # -- store events ---------------------------------------------------
    def bind(self, store: "LogStructuredStore") -> None:
        self._store = store
        self._rearm(store.user_seq)

    def next_sample_seq(self) -> int:
        """The store's ``user_seq`` at which the next cadence audit is
        due."""
        return self._next

    def user_writes(self, lbas, locs, start_seq: int, now_us: int) -> None:
        if self._store.user_seq >= self._next:
            self.audit(self._store)

    def finalize(self) -> None:
        self.audit(self._store)

    # -- the audit -------------------------------------------------------
    def audit(self, store: "LogStructuredStore") -> None:
        """Run every configured check; raise on the first violation."""
        self._rearm(store.user_seq)
        self.audits_run += 1
        for check_name in self.check_names:
            try:
                INVARIANT_CHECKS[check_name](store)
            except InvariantViolation as exc:
                self.violations += 1
                for fn in store.events.audited:
                    fn(exc.invariant, exc.detail, store.now_us)
                raise
        for fn in store.events.audited:
            fn(None, "", store.now_us)
