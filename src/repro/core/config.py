"""Configuration knobs of the ADAPT policy.

Every mechanism can be disabled independently, which the ablation benches
use to attribute WA/padding reductions to individual design choices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class AdaptConfig:
    """Knobs for :class:`~repro.core.policy.AdaptPolicy`.

    Attributes:
        sample_rate: spatial sampling rate of the threshold-adaptation
            pipeline (the paper runs 0.001 on multi-TB volumes; the scaled
            experiment volumes here default to 0.1 to keep the ghost sets
            statistically meaningful).
        num_ghost_sets: candidate thresholds simulated concurrently.
        ghost_garbage_limit: ghost-set GC trigger (garbage ratio); ``None``
            derives it from the store's over-provisioning.
        adapt_every_fraction: re-evaluate thresholds each time the sampled
            write volume exceeds this fraction of the (scaled) capacity
            (the paper uses 10 %).
        num_gc_groups: GC-rewritten group count (paper: four).
        demotion_score: minimum re-access score required to demote a user
            write directly into a GC group.
        bloom_filters: cascade depth of each RA discriminator.
        bloom_capacity: inserts per bloom filter before rotation.
        bloom_fp_rate: target false-positive rate per filter.
        enable_threshold_adaptation: §3.2 on/off (off = SepBIT-style
            segment-lifespan threshold only).
        enable_aggregation: §3.3 on/off.
        enable_demotion: §3.4 on/off.
    """

    sample_rate: float = 0.1
    num_ghost_sets: int = 5
    ghost_garbage_limit: float | None = None
    adapt_every_fraction: float = 0.10
    num_gc_groups: int = 4
    demotion_score: int = 2
    bloom_filters: int = 4
    bloom_capacity: int = 4096
    bloom_fp_rate: float = 0.01
    enable_threshold_adaptation: bool = True
    enable_aggregation: bool = True
    enable_demotion: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate <= 1:
            raise ConfigError("sample_rate must be in (0, 1]")
        if self.num_ghost_sets < 2:
            raise ConfigError("need at least 2 ghost sets to compare")
        if self.ghost_garbage_limit is not None and \
                not 0 < self.ghost_garbage_limit < 1:
            raise ConfigError("ghost_garbage_limit must be in (0, 1)")
        if not 0 < self.adapt_every_fraction <= 1:
            raise ConfigError("adapt_every_fraction must be in (0, 1]")
        if self.num_gc_groups < 1:
            raise ConfigError("need at least one GC group")
        if self.demotion_score < 1:
            raise ConfigError("demotion_score must be >= 1")
        if self.bloom_filters < 1:
            raise ConfigError("bloom_filters must be >= 1")
        if self.bloom_capacity < 1:
            raise ConfigError("bloom_capacity must be >= 1")
        if not 0 < self.bloom_fp_rate < 1:
            raise ConfigError("bloom_fp_rate must be in (0, 1)")
