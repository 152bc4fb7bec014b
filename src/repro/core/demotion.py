"""Proactive demotion placement (§3.4).

Under Zipfian workloads most blocks are long-lived: they are written once,
then repeatedly migrated through progressively colder GC groups — each hop
a rewrite.  The re-access (RA) identifier detects blocks that GC keeps
migrating *back into the same* GC group (same-group migration means the
block's lifespan matches that group's segment lifetimes) and, on the next
user write, places such blocks directly into that group, skipping the whole
cascade of intermediate migrations.

One cascaded bloom-filter discriminator per GC group; the score of an LBA
for a group is the number of cascade filters containing it.  The user-write
lookup picks the best-scoring group and demotes when the score clears the
configured threshold.  Most probed LBAs are in no cascade at all, so the
cascades share one ``holders`` count and a probe for an LBA it lacks
returns before scoring any group.
"""

from __future__ import annotations

import numpy as np

from repro.core.bloom import CascadedDiscriminator


class ProactiveDemotion:
    """RA identifiers for a set of GC groups.

    Args:
        gc_group_ids: store group ids of the GC-rewritten groups, coldest
            last (order only matters for tie-breaking).
        score_threshold: minimum score required to demote.
        num_filters / capacity / fp_rate: cascade shape per group.
    """

    __slots__ = ("gc_group_ids", "score_threshold", "discriminators",
                 "holders", "demotions", "lookups")

    def __init__(self, gc_group_ids: list[int], score_threshold: int = 2,
                 num_filters: int = 4, capacity: int = 4096,
                 fp_rate: float = 0.01) -> None:
        if not gc_group_ids:
            raise ValueError("need at least one GC group")
        if score_threshold < 1:
            raise ValueError("score_threshold must be >= 1")
        self.gc_group_ids = list(gc_group_ids)
        self.score_threshold = score_threshold
        #: LBA -> live member sets holding it, across all cascades.
        self.holders: dict[int, int] = {}
        self.discriminators = {
            gid: CascadedDiscriminator(num_filters, capacity, fp_rate,
                                       holders=self.holders)
            for gid in gc_group_ids
        }
        self.demotions = 0
        self.lookups = 0

    # ------------------------------------------------------------------
    # construction during GC
    # ------------------------------------------------------------------
    def gc_blocks(self, lbas: np.ndarray, from_group: int,
                  to_groups: np.ndarray) -> None:
        """GC migrated ``lbas[i]`` from ``from_group`` to ``to_groups[i]``;
        record the same-group GC-to-GC migrations, in order."""
        disc = self.discriminators.get(from_group)
        if disc is not None:
            disc.insert_many(lbas[to_groups == from_group].tolist())

    # pinned by the frozen `bench/` harness — no caller
    def on_gc_block(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    # ------------------------------------------------------------------
    # lookup on the user-write path
    # ------------------------------------------------------------------
    def demotion_target(self, lba: int) -> tuple[int, int] | None:
        """``(group, score)`` to demote ``lba`` into, or ``None`` to use
        the normal hotness-based placement."""
        self.lookups += 1
        if lba not in self.holders:
            return None
        best_gid, best_score = None, 0
        for gid in self.gc_group_ids:
            score = self.discriminators[gid].score(lba)
            if score > best_score:
                best_gid, best_score = gid, score
        if best_gid is not None and best_score >= self.score_threshold:
            self.demotions += 1
            return best_gid, best_score
        return None

    # pinned by the frozen `bench/` harness — no caller
    def demotion_targets(self, *args, **kwargs):
        raise NotImplementedError("pinned by the frozen bench/ harness")

    def memory_bytes(self) -> int:
        return sum(d.memory_bytes() for d in self.discriminators.values())
