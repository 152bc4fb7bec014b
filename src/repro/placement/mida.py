"""MiDA [Park et al. '21]: lifetime classification by migration count.

A block's group index is the number of times GC has migrated it since its
last user write: fresh user writes go to group 0, each GC survival bumps the
block one group higher (capped).  The paper configures eight groups that all
handle user and GC writes (§4.1), hence MIXED groups with the SLA window —
which is exactly why MiDA shows 33–45 % padding traffic in Observation 2.
"""

from __future__ import annotations

import numpy as np

from repro.lss.config import LSSConfig
from repro.lss.group import GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register


class MiDAPolicy(PlacementPolicy):
    """Migration-count groups: user writes reset to 0, GC increments."""

    __slots__ = ("num_groups", "_migrations", "_migrations_mv")

    name = "mida"
    _scalar_views = {"_migrations_mv": "_migrations"}

    def __init__(self, config: LSSConfig, num_groups: int = 8) -> None:
        super().__init__(config)
        if num_groups < 2:
            raise ValueError("MiDA needs at least 2 groups")
        self.num_groups = num_groups
        self._migrations = np.zeros(config.logical_blocks, dtype=np.int8)
        self._bind_scalar_views()

    def group_specs(self) -> list[GroupSpec]:
        return [GroupSpec(f"mig-{i}", GroupKind.MIXED)
                for i in range(self.num_groups)]

    def place_user(self, lba: int, now_us: int) -> int:
        self._migrations_mv[lba] = 0
        return 0

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        count = min(self._migrations_mv[lba] + 1, self.num_groups - 1)
        self._migrations_mv[lba] = count
        return count

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        counts = np.minimum(self._migrations[lbas].astype(np.int64) + 1,
                            self.num_groups - 1)
        self._migrations[lbas] = counts
        return counts

    def memory_bytes(self) -> int:
        return self._migrations.nbytes


register(MiDAPolicy.name, MiDAPolicy)
