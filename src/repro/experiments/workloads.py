"""Workload construction shared by the figure drivers.

Fleets are generated from :data:`FLEET_SEED` and memoised in-process
(``lru_cache``), so figs 3, 8, 9 and 10 of one run replay the same
Trace objects.  Nothing is kept on disk: each process regenerates its
fleets from the seed (see "Trace generation" in docs/performance.md)."""

from __future__ import annotations

from functools import lru_cache

from repro.experiments.scale import Scale
from repro.trace.model import Trace
from repro.trace.synthetic.cloud import generate_fleet

#: The three production environments of §4.1.
PROFILES = ("ali", "tencent", "msrc")

#: The six data-placement schemes of the evaluation.
SCHEMES = ("sepgc", "dac", "warcip", "mida", "sepbit", "adapt")

#: The five baselines of the motivation study (Fig 3).
BASELINES = ("sepgc", "dac", "warcip", "mida", "sepbit")

#: Master seed for all experiment fleets.
FLEET_SEED = 20250908  # ICPP'25 presentation date


@lru_cache(maxsize=None)
def _fleet_cached(profile: str, num_volumes: int, blocks: int,
                  requests: int) -> tuple[Trace, ...]:
    return tuple(generate_fleet(profile, num_volumes, unique_blocks=blocks,
                                num_requests=requests, seed=FLEET_SEED))


def fleet_for(profile: str, scale: Scale) -> list[Trace]:
    """The (memoised) volume fleet of ``profile`` at ``scale``."""
    return list(_fleet_cached(profile, scale.num_volumes,
                              scale.volume_blocks, scale.volume_requests))


def stats_fleet_for(profile: str, scale: Scale) -> list[Trace]:
    """A wider but lighter fleet for the Fig 2 characterisation."""
    return list(_fleet_cached(profile, scale.stats_volumes,
                              scale.volume_blocks // 4,
                              max(scale.volume_requests // 10, 2_000)))
