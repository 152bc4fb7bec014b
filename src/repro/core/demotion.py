"""Proactive demotion placement (§3.4).

Under Zipfian workloads most blocks are long-lived: they are written once,
then repeatedly migrated through progressively colder GC groups — each hop
a rewrite.  The re-access (RA) identifier detects blocks that GC keeps
migrating *back into the same* GC group (same-group migration means the
block's lifespan matches that group's segment lifetimes) and, on the next
user write, places such blocks directly into that group, skipping the whole
cascade of intermediate migrations.

One cascaded discriminator per GC group; the score of an LBA for a group
is the number of cascade filters containing it.  The user-write lookup
picks the best-scoring group and demotes when the score clears the
configured threshold.  Most probed LBAs are in no cascade at all, so the
cascades share one ``holders`` count and a probe for an LBA it lacks
returns before scoring any group.
"""

from __future__ import annotations

import math

import numpy as np

#: False-positive rate the modelled Bloom filters are sized for.  It sets
#: the memory budget only: the filters are exact member sets.
BLOOM_FP_RATE = 0.01


class CascadedDiscriminator:
    """FIFO cascade of filters: insert into the newest, score by counting
    the filters that contain the key, evict the oldest when the cascade
    is full, which ages out stale history (§3.4).

    Each filter is an exact member set: in CPython a set probe is faster
    than a simulated bit array and has no false positives.
    :meth:`memory_bytes` is a closed-form model of the Bloom-filter bits
    the paper's design would carry, which is the quantity Fig 12b
    accounts.

    ``holders`` maps key -> how many live member sets hold it.  It is the
    cascade's own unless several cascades share one (proactive demotion
    does); inserts and evictions keep it exact, so a key it lacks scores
    0 in every cascade that shares it.
    """

    __slots__ = ("num_filters", "capacity", "_members", "_counts",
                 "evictions", "_bytes_per_filter", "_holders")

    def __init__(self, num_filters: int = 4, capacity: int = 4096,
                 fp_rate: float = BLOOM_FP_RATE,
                 holders: dict[int, int] | None = None) -> None:
        if num_filters < 1:
            raise ValueError("num_filters must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0 < fp_rate < 1:
            raise ValueError("fp_rate must be in (0, 1)")
        self.num_filters = num_filters
        self.capacity = capacity
        self._members: list[set[int]] = [set()]
        self._counts: list[int] = [0]
        self.evictions = 0
        # A Bloom filter for n keys at false-positive rate p needs
        # m = -n·ln(p)/ln(2)² bits (at least 8), rounded up to bytes.
        bits = max(8, int(-capacity * math.log(fp_rate)
                          / (math.log(2) ** 2)))
        self._bytes_per_filter = (bits + 7) // 8
        self._holders: dict[int, int] = {} if holders is None else holders

    def insert_many(self, keys: list[int]) -> None:
        """Insert ``keys`` in order, with one set update per cascade
        filter they reach."""
        holders = self._holders
        done = 0
        while done < len(keys):
            if self._counts[-1] >= self.capacity:
                self._members.append(set())
                self._counts.append(0)
                if len(self._members) > self.num_filters:
                    evicted = self._members.pop(0)
                    self._counts.pop(0)
                    self.evictions += 1
                    for key in evicted:
                        left = holders[key] - 1
                        if left:
                            holders[key] = left
                        else:
                            del holders[key]
            part = keys[done:done + self.capacity - self._counts[-1]]
            new = set(part)
            new -= self._members[-1]
            self._members[-1] |= new
            get = holders.get
            for key in new:
                holders[key] = get(key, 0) + 1
            self._counts[-1] += len(part)
            done += len(part)

    def score(self, key: int) -> int:
        """Number of cascade filters containing ``key`` (0..num_filters)."""
        score = 0
        for m in self._members:
            if key in m:
                score += 1
        return score

    def memory_bytes(self) -> int:
        """The Bloom-bit budget of the live cascade filters."""
        return self._bytes_per_filter * len(self._members)


class ProactiveDemotion:
    """RA identifiers for a set of GC groups.

    Args:
        gc_group_ids: store group ids of the GC-rewritten groups, coldest
            last (order only matters for tie-breaking).
        score_threshold: minimum score required to demote.
        num_filters / capacity: cascade shape per group (each filter's
            Bloom budget is sized for :data:`BLOOM_FP_RATE`).
    """

    __slots__ = ("gc_group_ids", "score_threshold", "discriminators",
                 "holders", "demotions", "lookups")

    def __init__(self, gc_group_ids: list[int], score_threshold: int = 2,
                 num_filters: int = 4, capacity: int = 4096) -> None:
        if not gc_group_ids:
            raise ValueError("need at least one GC group")
        if score_threshold < 1:
            raise ValueError("score_threshold must be >= 1")
        self.gc_group_ids = list(gc_group_ids)
        self.score_threshold = score_threshold
        #: LBA -> live member sets holding it, across all cascades.
        self.holders: dict[int, int] = {}
        self.discriminators = {
            gid: CascadedDiscriminator(num_filters, capacity,
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
