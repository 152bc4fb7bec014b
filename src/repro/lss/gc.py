"""Garbage-collection engine.

Implements the four-phase process of §2.1: victim selection, validity scan,
valid-block migration (routed through the placement policy's GC placement),
and reclamation.  GC runs when the free-segment pool drops to the low
watermark and cleans until the high watermark is restored.

A victim's valid blocks migrate in one vectorized pass
(:meth:`GarbageCollector._migrate_batch`): all placement decisions are
hoisted above all appends, and invalidation, mapping updates and the
one ``gc_blocks`` event are deferred to the end.  That is exact because, within
one victim, nothing the append path touches feeds back into ``place_gc``
(policies read only per-LBA metadata and clocks that are constant during
a cleaning pass) and every valid LBA appears exactly once.  The readable
per-block specification is ``validate/oracle.py``; the differential
sweep checks this module against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.lss.segment import SEG_SEALED

if TYPE_CHECKING:  # pragma: no cover
    from repro.lss.store import LogStructuredStore


class GarbageCollector:
    """Watermark-driven cleaner of one store, which passes itself to
    every call: the collector keeps no reference back to the store that
    owns it."""

    __slots__ = ()

    # pinned by the frozen `bench/` harness — no caller
    _notify_gc_block = False

    def needed(self, store: "LogStructuredStore") -> bool:
        return store.pool.free_segments <= store.config.gc_free_low

    def run(self, store: "LogStructuredStore", now_us: int) -> int:
        """Clean until the high watermark; return segments reclaimed.

        Victims come from one :meth:`VictimPolicy.rank` per run, ranked
        again only when a seal adds a productive segment; a policy
        without a stable order is asked per victim (``select``).
        """
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
                self.clean_segment(store, victim, now_us)
                reclaimed += 1
        return reclaimed

    def clean_segment(self, store: "LogStructuredStore", victim: int,
                      now_us: int) -> None:
        """Migrate the victim's valid blocks and reclaim it."""
        pool = store.pool
        if pool.state_mv[victim] != SEG_SEALED:
            raise ValueError(f"GC victim {victim} is not sealed")
        victim_group = pool.group_mv[victim]
        created_seq = pool.created_seq_mv[victim]

        lbas = pool.valid_lbas(victim)
        n = int(lbas.shape[0])
        stats = store.stats
        stats.gc_passes += 1
        if n:
            self._migrate_batch(store, lbas, victim, victim_group, now_us)
        pool.reclaim(victim)
        stats.gc_segments_reclaimed += 1
        stats.victim_valid[n] += 1
        for fn in store.events.segment_reclaimed:
            fn(victim, victim_group, created_seq, n, now_us)

    def _migrate_batch(self, store: "LogStructuredStore", lbas: np.ndarray,
                       victim: int, victim_group: int, now_us: int) -> None:
        """Vectorized valid-block migration, bit-identical to a per-block
        loop (see the module docstring for why the reordering is safe)."""
        pool = store.pool
        n = int(lbas.shape[0])
        old_locs = store.mapping[lbas]
        outside = old_locs // pool.segment_blocks != victim
        if np.count_nonzero(outside):
            bad = int(lbas[np.flatnonzero(outside)[0]])
            raise AssertionError(
                f"mapping for lba {bad} points outside victim {victim}")
        dests = store.policy.place_gc_batch(lbas, victim_group, now_us)
        d0 = int(dests[0])
        if not np.count_nonzero(dests != d0):
            # Single destination (every GC-group-routing baseline).
            locs = store.groups[d0].append_gc_run(store, lbas, now_us)
        else:
            locs = np.empty(n, dtype=np.int64)
            change = np.flatnonzero(np.diff(dests)) + 1
            bounds = [0] + change.tolist() + [n]
            for b0, b1 in zip(bounds[:-1], bounds[1:]):
                group = store.groups[int(dests[b0])]
                locs[b0:b1] = group.append_gc_run(store, lbas[b0:b1],
                                                  now_us)
        # The batch is exactly the victim's valid set (checked above), so
        # the per-slot invalidation walk collapses to one row reset.
        pool.invalidate_all(victim)
        store.mapping[lbas] = locs
        store.stats.gc_blocks_migrated += n
        for fn in store.events.gc_blocks:
            fn(lbas, victim_group, dests, old_locs, locs)


__all__ = ["GarbageCollector"]
