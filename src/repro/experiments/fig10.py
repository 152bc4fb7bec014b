"""Fig 10 — per-volume correlation between ADAPT's padding-traffic
reduction and its WA reduction, vs MiDA and SepBIT (Ali fleet, Greedy).

Paper reference points: strong positive correlation; among volumes where
ADAPT removes > 40 % of the padding traffic it cuts WA by at least 21 %,
up to 72.1 % vs MiDA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.fig8 import profile_of, sweep
from repro.experiments.report import render_table
from repro.experiments.scale import Scale


@dataclass(frozen=True)
class Fig10Point:
    volume: str
    baseline: str
    padding_reduction: float   # 1 - pad_adapt / pad_baseline
    wa_reduction: float        # 1 - wa_adapt / wa_baseline


def run_fig10(scale: Scale | None = None,
              profile: str | None = None) -> list[Fig10Point]:
    """``profile=None`` pools all three environments.  The paper's scatter
    uses 50 Ali volumes whose padding spans near-0 to >40 %; at reduced
    scales a single profile's few volumes are too homogeneous for a stable
    correlation, so pooling supplies the equivalent diversity."""
    results = [r for r in sweep(scale)
               if r.victim == "greedy"
               and (profile is None or profile_of(r) == profile)]
    by_scheme_volume = {(r.scheme, r.volume): r for r in results}
    adapt = {v: r for (s, v), r in by_scheme_volume.items() if s == "adapt"}
    points = []
    for baseline in ("mida", "sepbit"):
        for volume, a in adapt.items():
            b = by_scheme_volume.get((baseline, volume))
            if b is None or b.flash_blocks == 0:
                continue
            pad_a = a.padding_blocks / max(a.user_blocks, 1)
            pad_b = b.padding_blocks / max(b.user_blocks, 1)
            pad_red = 1.0 - pad_a / pad_b if pad_b > 0 else 0.0
            wa_red = 1.0 - a.write_amplification / b.write_amplification
            points.append(Fig10Point(volume=volume, baseline=baseline,
                                     padding_reduction=pad_red,
                                     wa_reduction=wa_red))
    return points


def correlation(points: list[Fig10Point]) -> float:
    """Pearson correlation between padding reduction and WA reduction."""
    if len(points) < 2:
        return 0.0
    x = np.array([p.padding_reduction for p in points])
    y = np.array([p.wa_reduction for p in points])
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def render_fig10(points: list[Fig10Point]) -> str:
    table = render_table(
        ["volume", "baseline", "padding_reduction", "wa_reduction"],
        [[p.volume, p.baseline, p.padding_reduction, p.wa_reduction]
         for p in points],
        title="Fig 10 — padding reduction vs WA reduction per volume "
              "(paper: strongly correlated)",
    )
    return table + f"\n\nPearson r = {correlation(points):.3f}"
