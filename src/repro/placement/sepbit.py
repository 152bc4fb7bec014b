"""SepBIT [Wang et al., FAST '22]: separation via block invalidation time
inference.

Six classes.  User writes: infer a block's lifespan from its last user-write
distance ``v = u - u_last`` (in user-written blocks); ``v < l`` means the
block is short-lived (class 0), otherwise class 1, where ``l`` is the
exponentially averaged lifespan of class-0 segments collected by GC.  GC
rewrites: estimate *residual* lifespan from the block's age and spread
across four classes with geometrically growing age boundaries
``[l, 4l, 16l)`` etc.  This is the lifespan-based scheme ADAPT builds upon
(§3.1), so the implementation doubles as ADAPT's fallback path.
"""

from __future__ import annotations

import numpy as np

from repro.lss.config import LSSConfig
from repro.lss.group import GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register


class SepBITPolicy(PlacementPolicy):
    """2 user classes + 4 GC classes with an inferred lifespan threshold."""

    __slots__ = ("num_gc_groups", "ewma_alpha", "_last_user_write",
                 "_last_user_write_mv", "threshold")

    name = "sepbit"

    HOT = 0        # short-lived user writes
    COLD = 1       # long-lived user writes
    GC_BASE = 2    # first of the four GC classes

    _scalar_views = {"_last_user_write_mv": "_last_user_write"}

    def __init__(self, config: LSSConfig, num_gc_groups: int = 4,
                 ewma_alpha: float = 0.5) -> None:
        super().__init__(config)
        if num_gc_groups < 1:
            raise ValueError("need at least one GC group")
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.num_gc_groups = num_gc_groups
        self.ewma_alpha = ewma_alpha
        self._last_user_write = np.full(config.logical_blocks, -1,
                                        dtype=np.int64)
        self._bind_scalar_views()
        # Threshold l: initialised to one segment's worth of writes, the
        # natural cold-start guess (a class-0 segment that fills and is
        # immediately invalidated has lifespan ~ segment size).
        self.threshold = float(config.segment_blocks)

    def group_specs(self) -> list[GroupSpec]:
        specs = [GroupSpec("user-hot", GroupKind.USER),
                 GroupSpec("user-cold", GroupKind.USER)]
        specs += [GroupSpec(f"gc-{i}", GroupKind.GC)
                  for i in range(self.num_gc_groups)]
        return specs

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place_user(self, lba: int, now_us: int) -> int:
        now = self.user_seq
        last = self._last_user_write_mv[lba]
        self._last_user_write_mv[lba] = now
        if last < 0:
            return self.COLD
        v = now - last
        return self.HOT if v < self.threshold else self.COLD

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        age = self.block_age(lba)
        return self.GC_BASE + self.gc_class_for_age(age)

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        # The threshold only moves in segment_reclaimed, after the
        # whole victim is migrated: the age ladder is constant here, and
        # the class is how many geometric boundaries the age clears.
        last = self._last_user_write[lbas]
        now = self.user_seq
        age = np.where(last >= 0, now - last, now)
        bounds = gc_age_bounds(self.threshold, self.num_gc_groups)
        return self.GC_BASE + bounds.searchsorted(age, side="right")

    def block_age(self, lba: int) -> int:
        last = self._last_user_write_mv[lba]
        now = self.user_seq
        return now - last if last >= 0 else now

    def gc_class_for_age(self, age: int) -> int:
        """Geometric age ladder: boundaries l·4^i for i = 1..k-1."""
        bound = self.threshold * 4
        for cls in range(self.num_gc_groups - 1):
            if age < bound:
                return cls
            bound *= 4
        return self.num_gc_groups - 1

    # ------------------------------------------------------------------
    # threshold inference
    # ------------------------------------------------------------------
    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        if group_id != self.HOT:
            return
        lifespan = max(self.user_seq - created_seq, 1)
        self.threshold += self.ewma_alpha * (lifespan - self.threshold)

    def memory_bytes(self) -> int:
        return self._last_user_write.nbytes


def gc_age_bounds(unit: float, classes: int) -> np.ndarray:
    """The GC age ladder's class boundaries ``unit·4^i`` for ``i = 1 ..
    classes - 1``, built by the repeated ``*4`` the per-block ladders
    use, so a block's class is how many of them its age reaches (one
    ``searchsorted(age, side="right")``)."""
    bounds = []
    bound = unit * 4
    for _ in range(classes - 1):
        bounds.append(bound)
        bound *= 4
    return np.array(bounds, dtype=np.float64)


register(SepBITPolicy.name, SepBITPolicy)
