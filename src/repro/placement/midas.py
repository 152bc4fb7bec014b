"""MIDAS-flavoured adaptive group configuration (related work [17],
Oh et al. FAST '24) — an extension beyond the paper's baselines.

MIDAS's thesis is that the *number* of level-style groups should track the
workload: too few groups mix lifetimes (hot victims still carry valid
data), too many dilute each group's traffic (paper Observation 3).  This
implementation keeps MiDA's migration-count chain but adapts the active
chain length online from per-group victim-utilisation EWMAs:

* if the chain tail's victims are still mostly valid at GC time, the
  separation is too coarse — grow the chain;
* if the two tail groups' victim utilisations are indistinguishable, the
  last level adds nothing — shrink the chain.

The full MIDAS also resizes groups via a Markov model of update intervals;
group sizing is not modelled here (segments are allocated on demand), which
is documented as a simplification in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.lss.config import LSSConfig
from repro.lss.group import GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register


class MidasLitePolicy(PlacementPolicy):
    """Adaptive-length migration-count chain."""

    __slots__ = ("max_groups", "min_groups", "ewma_alpha",
                 "adapt_every_reclaims", "grow_util", "merge_gap",
                 "active_groups", "_migrations", "_migrations_mv",
                 "_victim_util", "_reclaims_since_adapt", "adaptations")

    name = "midas-lite"
    _scalar_views = {"_migrations_mv": "_migrations"}

    def __init__(self, config: LSSConfig, max_groups: int = 8,
                 min_groups: int = 2, ewma_alpha: float = 0.3,
                 adapt_every_reclaims: int = 16,
                 grow_util: float = 0.55, merge_gap: float = 0.08) -> None:
        super().__init__(config)
        if not 2 <= min_groups <= max_groups:
            raise ValueError("need 2 <= min_groups <= max_groups")
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.max_groups = max_groups
        self.min_groups = min_groups
        self.ewma_alpha = ewma_alpha
        self.adapt_every_reclaims = adapt_every_reclaims
        self.grow_util = grow_util
        self.merge_gap = merge_gap

        self.active_groups = min_groups
        self._migrations = np.zeros(config.logical_blocks, dtype=np.int8)
        self._bind_scalar_views()
        self._victim_util = np.full(max_groups, np.nan)
        self._reclaims_since_adapt = 0
        self.adaptations: list[int] = []

    def group_specs(self) -> list[GroupSpec]:
        # The chain is declared at max length; only [0, active_groups) are
        # routed to, so shrinking never strands data.
        return [GroupSpec(f"level-{i}", GroupKind.MIXED)
                for i in range(self.max_groups)]

    # ------------------------------------------------------------------
    # routing (MiDA semantics over the active prefix)
    # ------------------------------------------------------------------
    def place_user(self, lba: int, now_us: int) -> int:
        self._migrations_mv[lba] = 0
        return 0

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        count = min(self._migrations_mv[lba] + 1, self.active_groups - 1)
        self._migrations_mv[lba] = count
        return count

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        # active_groups only moves in segment_reclaimed, after the
        # whole victim is migrated, so it is constant across the batch.
        counts = np.minimum(self._migrations[lbas].astype(np.int64) + 1,
                            self.active_groups - 1)
        self._migrations[lbas] = counts
        return counts

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------
    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        util = valid_blocks / self.config.segment_blocks
        prev = self._victim_util[group_id]
        if np.isnan(prev):
            self._victim_util[group_id] = util
        else:
            self._victim_util[group_id] = \
                prev + self.ewma_alpha * (util - prev)
        self._reclaims_since_adapt += 1
        if self._reclaims_since_adapt >= self.adapt_every_reclaims:
            self._reclaims_since_adapt = 0
            self._adapt()

    def _adapt(self) -> None:
        utils = self._victim_util[: self.active_groups]
        measured = np.flatnonzero(~np.isnan(utils))
        if measured.size == 0:
            return
        old = self.active_groups
        if float(np.nanmax(utils[measured])) > self.grow_util and \
                self.active_groups < self.max_groups:
            # Some level's victims are still mostly valid at GC time:
            # lifetimes are mixed inside it — deepen the chain so those
            # long-lived blocks separate out.
            self.active_groups += 1
        elif measured.size >= 2 and self.active_groups > self.min_groups:
            # The two deepest measured levels clean victims of
            # indistinguishable utilisation: the last level separates
            # nothing — shrink the chain.
            a, b = measured[-1], measured[-2]
            if abs(float(utils[a]) - float(utils[b])) < self.merge_gap:
                self.active_groups -= 1
                self._victim_util[self.active_groups:] = np.nan
        if self.active_groups != old:
            self.adaptations.append(self.active_groups)

    def memory_bytes(self) -> int:
        return int(self._migrations.nbytes + self._victim_util.nbytes)


register(MidasLitePolicy.name, MidasLitePolicy)
