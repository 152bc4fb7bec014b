"""SepGC [Van Houdt '14]: separate user writes from GC writes.

The simplest hot/cold split and the paper's baseline: all user writes go to
group 0, all GC rewrites to group 1.  Despite its simplicity it performs
second-best under light traffic (§4.3) because a single user-written group
maximises write-aggregation efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.lss.group import GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register


class SepGCPolicy(PlacementPolicy):
    """Two groups: user-written and GC-rewritten."""

    __slots__ = ()

    name = "sepgc"

    USER_GROUP = 0
    GC_GROUP = 1

    def group_specs(self) -> list[GroupSpec]:
        return [
            GroupSpec("user", GroupKind.USER),
            GroupSpec("gc", GroupKind.GC),
        ]

    def place_user(self, lba: int, now_us: int) -> int:
        return self.USER_GROUP

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        return self.GC_GROUP

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        return np.full(int(lbas.shape[0]), self.GC_GROUP, dtype=np.int64)


register(SepGCPolicy.name, SepGCPolicy)
