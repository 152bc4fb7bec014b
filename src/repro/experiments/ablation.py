"""Ablations beyond the paper's figures.

Two studies, both called out in DESIGN.md:

* *Mechanism ablation* — toggle each of ADAPT's three mechanisms (§3.2,
  §3.3, §3.4) independently to attribute the WA/padding reductions.
* *Victim-policy sweep* — run ADAPT under all five implemented victim
  selection policies (Greedy, Cost-Benefit, d-choice, Windowed Greedy,
  Random Greedy), extending §4.2's two-policy comparison to the
  related-work variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AdaptConfig
from repro.experiments.report import render_table
from repro.experiments.runner import (
    overall_padding_ratio,
    overall_write_amplification,
    replay_volume,
)
from repro.experiments.scale import Scale, current_scale
from repro.experiments.workloads import fleet_for

MECHANISM_VARIANTS: dict[str, AdaptConfig] = {
    "full": AdaptConfig(),
    "no-threshold-adaptation": AdaptConfig(
        enable_threshold_adaptation=False),
    "no-aggregation": AdaptConfig(enable_aggregation=False),
    "no-demotion": AdaptConfig(enable_demotion=False),
    "substrate-only": AdaptConfig(enable_threshold_adaptation=False,
                                  enable_aggregation=False,
                                  enable_demotion=False),
}

VICTIM_POLICIES = ("greedy", "cost-benefit", "d-choice", "windowed-greedy",
                   "random-greedy")


@dataclass(frozen=True)
class AblationRow:
    study: str
    variant: str
    overall_wa: float
    padding_ratio: float


def run_mechanism_ablation(scale: Scale | None = None) -> list[AblationRow]:
    scale = scale or current_scale()
    fleet = fleet_for("ali", scale)
    rows = []
    for name, ac in MECHANISM_VARIANTS.items():
        results = [replay_volume("adapt", t, victim="greedy",
                                 logical_blocks=scale.volume_blocks,
                                 adapt=ac)
                   for t in fleet]
        rows.append(AblationRow(
            study="mechanism", variant=name,
            overall_wa=overall_write_amplification(results),
            padding_ratio=overall_padding_ratio(results)))
    return rows


def run_victim_ablation(scale: Scale | None = None) -> list[AblationRow]:
    scale = scale or current_scale()
    fleet = fleet_for("ali", scale)
    rows = []
    for victim in VICTIM_POLICIES:
        results = [replay_volume("adapt", t, victim=victim,
                                 logical_blocks=scale.volume_blocks)
                   for t in fleet]
        rows.append(AblationRow(
            study="victim(adapt)", variant=victim,
            overall_wa=overall_write_amplification(results),
            padding_ratio=overall_padding_ratio(results)))
    return rows


def render_ablation(rows: list[AblationRow]) -> str:
    return render_table(
        ["study", "variant", "overall_WA", "padding_ratio"],
        [[r.study, r.variant, r.overall_wa, r.padding_ratio]
         for r in rows],
        title="Ablations — ADAPT mechanism toggles and victim policies",
    )
