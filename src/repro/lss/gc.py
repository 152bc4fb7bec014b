"""Garbage-collection engine.

Implements the four-phase process of §2.1: victim selection, validity scan,
valid-block migration (routed through the placement policy's GC placement),
and reclamation.  GC runs when the free-segment pool drops to the low
watermark and cleans until the high watermark is restored.

A victim's valid blocks migrate in one vectorized pass
(:meth:`GarbageCollector._migrate_batch`): all placement decisions are
hoisted above all appends, and invalidation, mapping updates and
``on_gc_block`` are deferred to the end.  That is exact because, within
one victim, nothing the append path touches feeds back into ``place_gc``
(policies read only per-LBA metadata and clocks that are constant during
a cleaning pass) and every valid LBA appears exactly once.  The readable
per-block specification is ``validate/oracle.py``; the differential
sweep checks this module against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.lss.segment import ORIGIN_GC, SEG_SEALED
from repro.placement.base import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.lss.store import LogStructuredStore


class GarbageCollector:
    """Watermark-driven cleaner bound to one store."""

    def __init__(self, store: "LogStructuredStore") -> None:
        self.store = store
        #: Policies with the base no-op ``on_gc_block`` skip the per-block
        #: notification loop.
        self._notify_gc_block = type(store.policy).on_gc_block \
            is not PlacementPolicy.on_gc_block

    def needed(self) -> bool:
        return self.store.pool.free_segments <= self.store.config.gc_free_low

    def run(self, now_us: int) -> int:
        """Clean until the high watermark; return segments reclaimed.

        Victims come from one :meth:`VictimPolicy.rank` per run, ranked
        again only when a seal adds a productive segment; a policy
        without a stable order is asked per victim (``select``).
        """
        store = self.store
        pool = store.pool
        victims = store.victim_policy
        reclaimed = 0
        ranked, pos, seals = None, 0, -1
        with store.profiler.span("gc"):
            while pool.free_segments < store.config.gc_free_high:
                if pool.garbage_seals != seals:
                    seals = pool.garbage_seals
                    ranked, pos = victims.rank(pool, store.user_seq), 0
                if ranked is None:
                    victim = victims.select(pool, store.user_seq)
                elif pos < len(ranked):
                    victim = ranked[pos]
                    pos += 1
                else:
                    victim = None
                if victim is None:
                    break  # no productive victim; stop rather than spin
                self.clean_segment(victim, now_us)
                reclaimed += 1
        return reclaimed

    def clean_segment(self, victim: int, now_us: int) -> None:
        """Migrate the victim's valid blocks and reclaim it."""
        store = self.store
        pool = store.pool
        if pool.state_mv[victim] != SEG_SEALED:
            raise ValueError(f"GC victim {victim} is not sealed")
        victim_group = pool.group_mv[victim]
        created_seq = pool.created_seq_mv[victim]

        lbas = pool.valid_lbas(victim)
        n = int(lbas.shape[0])
        stats = store.stats
        stats.gc_passes += 1
        if store._attr_on:
            # Victim attribution must be taken before migration clears
            # the victim's slot_valid plane.
            orig = pool.slot_origin[victim][pool.slot_valid[victim]]
            gc_origin = int(np.count_nonzero(orig == ORIGIN_GC))
            store.attribution.on_gc_victim(
                victim_group, store.user_seq - created_seq, n,
                pool.segment_blocks, n - gc_origin, gc_origin)
        if n:
            self._migrate_batch(lbas, victim, victim_group, now_us)

        store.policy.on_segment_reclaimed(
            group_id=victim_group,
            created_seq=created_seq,
            sealed_seq=pool.sealed_seq_mv[victim],
            now_seq=store.user_seq,
            valid_blocks=n,
        )
        pool.reclaim(victim)
        stats.gc_segments_reclaimed += 1
        store.obs.on_gc_pass(victim, victim_group, n, now_us)
        store.on_segment_reclaimed_physical(victim)

    def _migrate_batch(self, lbas: np.ndarray, victim: int,
                       victim_group: int, now_us: int) -> None:
        """Vectorized valid-block migration, bit-identical to a per-block
        loop (see the module docstring for why the reordering is safe)."""
        store = self.store
        pool = store.pool
        n = int(lbas.shape[0])
        old_locs = store.mapping[lbas]
        outside = old_locs // pool.segment_blocks != victim
        if np.count_nonzero(outside):
            bad = int(lbas[np.flatnonzero(outside)[0]])
            raise AssertionError(
                f"mapping for lba {bad} points outside victim {victim}")
        dests = store.policy.place_gc_batch(lbas, victim_group, now_us)
        lba_list = lbas.tolist()
        d0 = int(dests[0])
        if not np.count_nonzero(dests != d0):
            # Single destination (every GC-group-routing baseline).
            locs = store.groups[d0].append_gc_run(lbas, lba_list, now_us)
        else:
            locs = np.empty(n, dtype=np.int64)
            change = np.flatnonzero(np.diff(dests)) + 1
            bounds = [0] + change.tolist() + [n]
            for b0, b1 in zip(bounds[:-1], bounds[1:]):
                group = store.groups[int(dests[b0])]
                locs[b0:b1] = group.append_gc_run(lbas[b0:b1],
                                                  lba_list[b0:b1], now_us)
        if store._attr_on:
            # Gather epochs before scatter: old slots live in the victim,
            # new slots outside it, so the planes never alias.
            epochs = pool.slot_epoch_flat[old_locs]
            pool.slot_origin_flat[locs] = ORIGIN_GC
            pool.slot_epoch_flat[locs] = epochs
        # The batch is exactly the victim's valid set (checked above), so
        # the per-slot invalidation walk collapses to one row reset.
        pool.invalidate_all(victim)
        store.mapping[lbas] = locs
        store.stats.gc_blocks_migrated += n
        if self._notify_gc_block:
            dest_list = dests.tolist()
            for idx, lba in enumerate(lba_list):
                store.policy.on_gc_block(lba, victim_group,
                                         dest_list[idx])


__all__ = ["GarbageCollector"]
