"""WARCIP [Yang et al. '19]: write-amplification reduction by clustering
I/O pages on their rewrite intervals.

Each block's observed rewrite interval (user-write logical clock) is
assigned to the nearest of k online cluster centroids in log2 space; the
centroid is nudged toward the sample (online k-means).  The paper's
configuration is five user-written clusters plus one GC-rewritten group
(§4.1).  Blocks with no history go to the coldest cluster.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lss.config import LSSConfig
from repro.lss.group import GroupKind, GroupSpec
from repro.placement.base import PlacementPolicy
from repro.placement.registry import register


class WarcipPolicy(PlacementPolicy):
    """k rewrite-interval clusters (user writes) + 1 GC group."""

    name = "warcip"
    _scalar_views = {"_last_write_mv": "_last_write"}

    def __init__(self, config: LSSConfig, num_clusters: int = 5,
                 learning_rate: float = 0.05) -> None:
        super().__init__(config)
        if num_clusters < 2:
            raise ValueError("WARCIP needs at least 2 clusters")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        self.num_clusters = num_clusters
        self.learning_rate = learning_rate
        self._last_write = np.full(config.logical_blocks, -1, dtype=np.int64)
        self._bind_scalar_views()
        # Centroids in log2(interval) space, spread over a plausible range:
        # one segment up to the whole logical space.  A plain list: the
        # per-write nearest search and update touch one scalar at a time.
        lo = math.log2(max(config.segment_blocks, 2))
        hi = math.log2(max(config.logical_blocks * 4, 4))
        self._centroids = np.linspace(lo, hi, num_clusters).tolist()

    def group_specs(self) -> list[GroupSpec]:
        specs = [GroupSpec(f"cluster-{i}", GroupKind.USER)
                 for i in range(self.num_clusters)]
        specs.append(GroupSpec("gc", GroupKind.GC))
        return specs

    @property
    def gc_group(self) -> int:
        return self.num_clusters

    def place_user(self, lba: int, now_us: int) -> int:
        now = self.user_seq
        last = self._last_write_mv[lba]
        self._last_write_mv[lba] = now
        if last < 0:
            return self.num_clusters - 1  # no history: coldest cluster
        interval = math.log2(max(now - last, 1))
        centroids = self._centroids
        # Nearest centroid; the first of equally near ones wins, as with
        # np.argmin.
        cluster, best = 0, abs(centroids[0] - interval)
        for i in range(1, self.num_clusters):
            dist = abs(centroids[i] - interval)
            if dist < best:
                cluster, best = i, dist
        # Online k-means update keeps centroids tracking the workload.
        moved = centroids[cluster] + \
            self.learning_rate * (interval - centroids[cluster])
        centroids[cluster] = moved
        # Keep centroids ordered so cluster index keeps its hot->cold
        # sense.  The nearest centroid moves toward the sample, so it can
        # only cross a neighbour it was tied with: sorting is rare.
        if (cluster and moved < centroids[cluster - 1]) or \
                (cluster + 1 < self.num_clusters
                 and moved > centroids[cluster + 1]):
            centroids.sort()
        return cluster

    def place_gc(self, lba: int, victim_group: int, now_us: int) -> int:
        return self.gc_group

    def place_gc_batch(self, lbas: np.ndarray, victim_group: int,
                       now_us: int) -> np.ndarray:
        return np.full(int(lbas.shape[0]), self.gc_group, dtype=np.int64)

    def memory_bytes(self) -> int:
        # The centroids count as the float64 array they stand for.
        return self._last_write.nbytes + 8 * len(self._centroids)


register(WarcipPolicy.name, WarcipPolicy)
