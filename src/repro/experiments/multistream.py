"""Multi-stream ablation (§3.1's side claim): in-device WA with groups
mapped one-to-one onto SSD streams vs a single shared stream.

Not a figure in the paper — the paper asserts the capability in passing —
but DESIGN.md lists it as a design choice worth quantifying, so the bench
suite measures it end to end through the FTL substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import render_table
from repro.experiments.runner import store_config_for
from repro.experiments.scale import Scale, current_scale
from repro.ftl.bridge import measure_device_wa
from repro.trace.synthetic.ycsb import generate_ycsb_a


@dataclass(frozen=True)
class MultiStreamRow:
    scheme: str
    mode: str
    host_wa: float
    device_wa: float
    end_to_end_wa: float


def run_multistream(scale: Scale | None = None) -> list[MultiStreamRow]:
    scale = scale or current_scale()
    # The FTL replays every flushed block in Python: use a quarter-size
    # volume to keep the bench bounded.
    blocks = max(scale.ycsb_blocks // 4, 2048)
    writes = max(scale.ycsb_writes // 4, 10_000)
    cfg = store_config_for(blocks)
    trace = generate_ycsb_a(blocks, writes, density=30.0, read_ratio=0.0,
                            seed=21)
    rows = []
    for scheme in ("sepgc", "sepbit", "adapt"):
        for multi in (False, True):
            r = measure_device_wa(scheme, trace, cfg, multi_stream=multi)
            rows.append(MultiStreamRow(
                scheme=scheme, mode=r.label, host_wa=r.host_wa,
                device_wa=r.device_wa, end_to_end_wa=r.end_to_end_wa))
    return rows


def render_multistream(rows: list[MultiStreamRow]) -> str:
    return render_table(
        ["scheme", "mode", "host_WA", "device_WA", "end_to_end_WA"],
        [[r.scheme, r.mode, r.host_wa, r.device_wa, r.end_to_end_wa]
         for r in rows],
        title="Multi-stream ablation — in-device WA, groups->streams "
              "(§3.1 claim: one-to-one mapping reduces device WA)",
    )
