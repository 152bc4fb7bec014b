"""Fleet specification: what a fleet run *is*, independent of how it runs.

A :class:`FleetSpec` fully determines every tenant volume's trace stream
and store configuration.  Everything downstream — shard workers,
checkpoints, the summary report — derives from it, and the orchestration
knobs (worker count, checkpoint cadence, output directory) deliberately
live *outside* it: running the same spec serially, across 8 processes,
or interrupted-and-resumed must produce bit-identical per-volume results.

Determinism contract (see ``docs/fleet.md``):

* tenant identity is the volume *name*; every per-tenant RNG stream is
  keyed by hashing ``(fleet seed, name, purpose)``
  (:func:`repro.common.rng.tenant_rng`), never by enumeration order, so
  a 5000-volume fleet contains the 64-volume fleet's traces verbatim;
* the per-tenant store seed (victim-policy RNG, sampler salts) is hashed
  the same way;
* shard assignment is round-robin on the tenant index — any shard can
  be recomputed from ``(spec, shard, num_shards)`` alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.common.rng import stable_seed
from repro.lss.victim import available_victim_policies
from repro.placement import available_policies
from repro.trace.stream import DEFAULT_CHUNK_REQUESTS, SyntheticVolumeStream
from repro.trace.synthetic.cloud import profile_by_name

#: Default master seed for fleet runs (the experiment fleets' seed).
DEFAULT_FLEET_SEED = 20250908


@dataclass(frozen=True)
class FleetSpec:
    """Complete description of one fleet replay.

    Attributes:
        profile: cloud profile name (``ali``/``tencent``/``msrc``).
        scheme: placement policy replayed on every volume.
        victim: GC victim-selection policy.
        num_volumes: tenant count.
        volume_blocks: per-volume logical address space (4 KiB blocks).
        volume_requests: per-volume request count.
        seed: fleet master seed (hashed per tenant, never enumerated).
        chunk_requests: streaming-ingestion chunk bound (per-volume
            replay memory is O(this), not O(volume_requests)).
        collect_metrics: attach a :class:`~repro.obs.ObsRecorder` per
            volume and carry its snapshot into the fleet summary.
        timeline_every: when set, attach a recorder per volume whose
            timeline samples every N user blocks (instead of 1024) and
            export each timeline next to the summary.
        collect_attribution: attach an
            :class:`~repro.obs.attribution.AttributionRecorder` per
            volume; snapshots ride the volume reports and merge
            deterministically into the summary aggregate.
    """

    profile: str = "ali"
    scheme: str = "adapt"
    victim: str = "greedy"
    num_volumes: int = 8
    volume_blocks: int = 8_192
    volume_requests: int = 6_000
    seed: int = DEFAULT_FLEET_SEED
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS
    collect_metrics: bool = False
    timeline_every: int | None = None
    collect_attribution: bool = False

    def __post_init__(self) -> None:
        # Names are checked here, not where a worker first uses them.
        profile_by_name(self.profile)
        if self.scheme not in available_policies():
            raise ValueError(f"unknown placement policy {self.scheme!r}; "
                             f"available: {available_policies()}")
        if self.victim not in available_victim_policies():
            raise ValueError(f"unknown victim policy {self.victim!r}; "
                             f"available: {available_victim_policies()}")
        if self.num_volumes < 1:
            raise ValueError("num_volumes must be >= 1")
        if self.volume_blocks < 1:
            raise ValueError("volume_blocks must be >= 1")
        if self.volume_requests < 0:
            raise ValueError("volume_requests must be >= 0")
        if self.chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        if self.timeline_every is not None and self.timeline_every < 1:
            raise ValueError("timeline_every must be >= 1")

    # ------------------------------------------------------------------
    # tenant derivation
    # ------------------------------------------------------------------
    def tenant_id(self, index: int) -> str:
        """Stable tenant name for volume ``index``."""
        if not 0 <= index < self.num_volumes:
            raise IndexError(f"volume {index} out of range "
                             f"[0, {self.num_volumes})")
        return f"{self.profile}-{index:04d}"

    def tenant_ids(self) -> list[str]:
        return [self.tenant_id(i) for i in range(self.num_volumes)]

    def shard_tenants(self, shard: int, num_shards: int) -> list[str]:
        """Round-robin tenant assignment of ``shard`` (deterministic)."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 0 <= shard < num_shards:
            raise ValueError(f"shard {shard} out of [0, {num_shards})")
        return [self.tenant_id(i)
                for i in range(shard, self.num_volumes, num_shards)]

    def volume_stream(self, tenant_id: str) -> SyntheticVolumeStream:
        """The tenant's trace stream (identical on every shard)."""
        return SyntheticVolumeStream(
            self.profile, tenant_id, self.volume_blocks,
            self.volume_requests, seed=self.seed,
            chunk_requests=self.chunk_requests)

    def store_seed(self, tenant_id: str) -> int:
        """Per-tenant store seed (victim RNG, sampler salts) — hashed
        from the tenant name so it survives fleet resizing too."""
        return stable_seed(self.seed, tenant_id, "store") % (2 ** 31)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def fleet_key(self) -> str:
        """Content hash binding checkpoints and summaries to this spec."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


__all__ = ["DEFAULT_FLEET_SEED", "FleetSpec"]
