"""The store's one event seam.

Everything that listens to a :class:`~repro.lss.store.LogStructuredStore`
— the placement policy, the recorder, the attribution ledger, the
invariant auditor, the FTL bridge — subclasses :class:`StoreObserver`
and overrides the events it needs.  The store keeps one
:class:`StoreEvents`: per event, the ordered tuple of bound handlers of
the observers that override it, so an event nobody overrides costs one
loop over an empty tuple.

Every event reaches its subscribers in one order: the policy, the
recorder, the attribution ledger, the auditor, then each observer
``store.subscribe`` added, oldest first.  The store's own events are
bulk-shaped: a settled run of user writes, a run of FULL chunk flushes,
one victim's migrated blocks.  The last four are decisions, one event
each, that the policy (``shadow_appended``, ``demoted``,
``threshold_switched``) or the auditor (``audited``) fires through
``store.events``.  See ``docs/extending.md`` ("Observing a store").
"""

from __future__ import annotations

import sys
from typing import Any, Iterable

#: What :meth:`StoreObserver.next_sample_seq` answers for an observer
#: that never needs the store settled.
NO_SAMPLE: int = sys.maxsize

#: The events the store fires (``bind`` aside), in declaration order.
EVENTS: tuple[str, ...] = (
    "next_sample_seq", "user_writes", "chunk_flush",
    "segment_sealed", "gc_blocks", "segment_reclaimed",
    "finalize", "shadow_appended", "demoted", "threshold_switched",
    "audited",
)


class StoreObserver:
    """No-op base of every store event; subclasses override what they
    need.  Handlers receive plain values, arrays or the store's own
    group and flush records."""

    __slots__ = ()

    def bind(self, store: Any) -> None:
        """Receive the finished store (once, when attached)."""

    def next_sample_seq(self) -> int:
        """The ``user_seq`` at which this observer next reads the store;
        the replay loop settles exactly there."""
        return NO_SAMPLE

    def user_writes(self, lbas, locs, start_seq: int, now_us: int) -> None:
        """User writes were settled: ``lbas[i]`` took slot ``locs[i]`` at
        ``user_seq`` ``start_seq + i``, the last one at ``now_us`` (one
        block from ``write_block``, a run from ``replay``)."""

    def chunk_flush(self, group: Any, flush: Any) -> None:
        """``group`` wrote ``flush.count`` chunks (a
        :class:`~repro.array.coalescing.ChunkFlush`; ``count > 1`` is a
        run of FULL flushes with block counts summed over the run).  A
        handler must leave the state ``count`` single-flush calls would."""

    def segment_sealed(self, group_id: int, seg: int) -> None:
        """Segment ``seg`` of ``group_id`` filled up and became immutable."""

    def gc_blocks(self, lbas, from_group: int, to_groups, old_locs,
                  new_locs) -> None:
        """GC migrated one victim's valid blocks: ``lbas[i]`` moved from
        ``old_locs[i]`` in ``from_group`` to ``new_locs[i]`` in group
        ``to_groups[i]`` (arrays in the victim's slot order)."""

    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        """GC erased segment ``seg`` of ``group_id`` (opened at
        ``created_seq``) after migrating its ``valid_blocks`` blocks."""

    def finalize(self) -> None:
        """End of replay: the store force-flushed every pending chunk."""

    def shadow_appended(self, hot_gid: int, cold_gid: int, blocks: int,
                        now_us: int) -> None:
        """Cross-group aggregation wrote ``blocks`` substitutes of hot
        group ``hot_gid``'s pending blocks into cold group ``cold_gid``
        (§3.3)."""

    def demoted(self, lba: int, target_gid: int, score: int,
                now_us: int) -> None:
        """Proactive demotion routed the user write of ``lba`` straight
        into GC group ``target_gid`` (§3.4)."""

    def threshold_switched(self, best_threshold: float, mode: str,
                           rounds: int, threshold: float,
                           now_us: int) -> None:
        """The ghost ladder closed an adaptation round won by
        ``best_threshold`` and moved the live hot/cold ``threshold``
        (in blocks) (§3.2)."""

    def audited(self, invariant: str | None, detail: str,
                now_us: int) -> None:
        """An invariant audit finished: ``invariant`` is ``None`` when
        every check passed, else the violated check's name (the auditor
        then raises)."""


class StoreEvents:
    """One ordered tuple of bound handlers per event of :data:`EVENTS`,
    holding only the ``observers`` whose class overrides that event."""

    __slots__ = ("observers",) + EVENTS

    def __init__(self, observers: Iterable[StoreObserver]) -> None:
        self.observers = tuple(observers)
        for event in EVENTS:
            base = getattr(StoreObserver, event)
            setattr(self, event, tuple(
                getattr(o, event) for o in self.observers
                if getattr(type(o), event) is not base))


__all__ = ["EVENTS", "NO_SAMPLE", "StoreEvents", "StoreObserver"]
