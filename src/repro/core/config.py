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
        adapt_every_fraction: re-evaluate thresholds each time the sampled
            write volume exceeds this fraction of the (scaled) capacity
            (the paper uses 10 %).
        num_gc_groups: GC-rewritten group count (paper: four).
        bloom_filters: cascade depth of each RA discriminator.
        bloom_capacity: inserts per cascade filter before rotation.
        enable_threshold_adaptation: §3.2 on/off (off = SepBIT-style
            segment-lifespan threshold only).
        enable_aggregation: §3.3 on/off.
        enable_demotion: §3.4 on/off.
    """

    sample_rate: float = 0.1
    adapt_every_fraction: float = 0.10
    num_gc_groups: int = 4
    bloom_filters: int = 4
    bloom_capacity: int = 4096
    enable_threshold_adaptation: bool = True
    enable_aggregation: bool = True
    enable_demotion: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate <= 1:
            raise ConfigError("sample_rate must be in (0, 1]")
        if not 0 < self.adapt_every_fraction <= 1:
            raise ConfigError("adapt_every_fraction must be in (0, 1]")
        if self.num_gc_groups < 1:
            raise ConfigError("need at least one GC group")
        if self.bloom_filters < 1:
            raise ConfigError("bloom_filters must be >= 1")
        if self.bloom_capacity < 1:
            raise ConfigError("bloom_capacity must be >= 1")
