"""DAC — Dynamic dAta Clustering [Chiang et al. '99].

Blocks migrate between k temperature regions: an update *promotes* a block
one region hotter (it proved itself recently written), a GC migration
*demotes* it one region colder (it survived a cleaning pass).  The paper
configures five regions handling both user and GC writes (§4.1), so all
groups are MIXED: user-facing with the SLA window.
"""

from __future__ import annotations

import numpy as np

from repro.lss.config import LSSConfig
from repro.lss.group import GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register


class DACPolicy(PlacementPolicy):
    """k mixed temperature regions with promote-on-write / demote-on-GC."""

    name = "dac"
    _scalar_views = {"_region_mv": "_region", "_written_mv": "_written"}

    def __init__(self, config: LSSConfig, num_regions: int = 5) -> None:
        super().__init__(config)
        if num_regions < 2:
            raise ValueError("DAC needs at least 2 regions")
        self.num_regions = num_regions
        # Region 0 is the coldest. New blocks start there.
        self._region = np.zeros(config.logical_blocks, dtype=np.int8)
        self._written = np.zeros(config.logical_blocks, dtype=bool)
        self._bind_scalar_views()

    def group_specs(self) -> list[GroupSpec]:
        return [GroupSpec(f"region-{i}", GroupKind.MIXED)
                for i in range(self.num_regions)]

    def place_user(self, lba: int, now_us: int) -> int:
        if self._written_mv[lba]:
            new = min(self._region_mv[lba] + 1, self.num_regions - 1)
        else:
            new = 0
            self._written_mv[lba] = True
        self._region_mv[lba] = new
        return new

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        new = max(self._region_mv[lba] - 1, 0)
        self._region_mv[lba] = new
        return new

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        new = np.maximum(self._region[lbas].astype(np.int64) - 1, 0)
        self._region[lbas] = new
        return new

    def memory_bytes(self) -> int:
        return self._region.nbytes + self._written.nbytes


register(DACPolicy.name, DACPolicy)
