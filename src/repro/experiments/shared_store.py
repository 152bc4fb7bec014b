"""Shared-log deployment study (extension).

Cloud block stores serve many volumes from one log (§2.2); the paper's
per-volume evaluation isolates placement effects, but consolidation itself
changes the picture: multiplexing sparse volumes raises the combined access
density, so chunks fill that no single volume could fill.  This experiment
replays an Ali-like fleet twice — one store per volume vs one shared store
over the multiplexed trace — and compares aggregate WA and padding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import render_table
from repro.experiments.runner import (
    overall_padding_ratio,
    overall_write_amplification,
    replay_volume,
)
from repro.experiments.scale import Scale, current_scale
from repro.experiments.workloads import fleet_for
from repro.trace.transforms import multiplex, scale_rate


@dataclass(frozen=True)
class SharedStoreRow:
    scheme: str
    deployment: str           # "per-volume" or "shared"
    write_amplification: float
    padding_ratio: float


def run_shared_store(scale: Scale | None = None) -> list[SharedStoreRow]:
    scale = scale or current_scale()
    fleet = fleet_for("ali", scale)
    # Tenants of a shared log are concurrently active; per-volume synthetic
    # durations differ by orders of magnitude, so normalise every volume to
    # the fleet's median span before interleaving (otherwise the "shared"
    # store mostly serves one tenant at a time and consolidation is moot).
    spans = sorted(t.duration_us for t in fleet)
    target = max(spans[len(spans) // 2], 1)
    normalised = [
        scale_rate(t, max(t.duration_us, 1) / target) if t.duration_us
        else t
        for t in fleet
    ]
    merged, _ = multiplex(normalised,
                          address_blocks=[scale.volume_blocks] * len(fleet))
    rows = []
    for scheme in ("sepgc", "sepbit", "adapt"):
        # Same normalised traces on both sides, so the only variable is
        # the deployment.
        per_vol = [replay_volume(scheme, t,
                                 logical_blocks=scale.volume_blocks)
                   for t in normalised]
        rows.append(SharedStoreRow(
            scheme=scheme, deployment="per-volume",
            write_amplification=overall_write_amplification(per_vol),
            padding_ratio=overall_padding_ratio(per_vol)))
        shared = replay_volume(
            scheme, merged,
            logical_blocks=scale.volume_blocks * len(fleet))
        rows.append(SharedStoreRow(
            scheme=scheme, deployment="shared",
            write_amplification=shared.write_amplification,
            padding_ratio=shared.padding_ratio))
    return rows


def render_shared_store(rows: list[SharedStoreRow]) -> str:
    return render_table(
        ["scheme", "deployment", "WA", "padding_ratio"],
        [[r.scheme, r.deployment, r.write_amplification, r.padding_ratio]
         for r in rows],
        title="Shared-log consolidation — per-volume stores vs one "
              "multiplexed store (expect: consolidation cuts padding)",
    )
