"""Experiment scale presets.

Replaying weeks of production traces in pure Python is the reproduction's
bottleneck (see DESIGN.md); every experiment therefore accepts a scale:

* ``smoke`` — seconds; CI and unit tests.
* ``default`` — minutes on one core; the benchmark suite's setting.
* ``paper`` — closest to the paper's volume counts; hours.

Select with ``REPRO_SCALE=paper pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one preset."""

    name: str
    # Cloud-fleet experiments (figs 3, 8, 9, 10).
    num_volumes: int
    volume_blocks: int
    volume_requests: int
    # Fig 2 characterisation fleets (cheap to generate; more volumes).
    stats_volumes: int
    # YCSB experiments (figs 11, 12).
    ycsb_blocks: int
    ycsb_writes: int


SMOKE = Scale("smoke", num_volumes=2, volume_blocks=8_192,
              volume_requests=6_000, stats_volumes=12,
              ycsb_blocks=8_192, ycsb_writes=25_000)

DEFAULT = Scale("default", num_volumes=5, volume_blocks=16_384,
                volume_requests=30_000, stats_volumes=50,
                ycsb_blocks=16_384, ycsb_writes=60_000)

PAPER = Scale("paper", num_volumes=50, volume_blocks=65_536,
              volume_requests=200_000, stats_volumes=50,
              ycsb_blocks=1_000_000, ycsb_writes=10_000_000)

PRESETS = {s.name: s for s in (SMOKE, DEFAULT, PAPER)}


def current_scale() -> Scale:
    """Resolve the active preset from ``REPRO_SCALE`` (``default`` when
    unset)."""
    name = os.environ.get("REPRO_SCALE", "default").lower()
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown REPRO_SCALE={name!r}; expected one of "
            f"{sorted(PRESETS)}") from None
