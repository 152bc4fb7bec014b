"""Fig 12 — prototype throughput under client scaling (a) and metadata
memory overhead vs SepBIT (b).

Paper reference points: all schemes tie at one client (SepGC marginally
ahead); ADAPT delivers 1.11-1.47x at 4 clients and 1.10-1.58x at 8 clients;
ADAPT's memory sits ~4.6 % above SepBIT's at the paper's 0.001 sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AdaptConfig
from repro.experiments.report import render_table
from repro.experiments.runner import store_config_for
from repro.experiments.scale import Scale, current_scale
from repro.experiments.workloads import SCHEMES
from repro.prototype.engine import PrototypeConfig, run_client_sweep
from repro.prototype.memory import MemoryReport, measure_memory
from repro.trace.synthetic.ycsb import generate_ycsb_a

CLIENT_COUNTS = (1, 4, 8)


@dataclass(frozen=True)
class Fig12aRow:
    scheme: str
    clients: int
    throughput_kops: float
    bandwidth_bound: bool
    write_amplification: float


def run_fig12a(scale: Scale | None = None,
               schemes: tuple[str, ...] = SCHEMES) -> list[Fig12aRow]:
    scale = scale or current_scale()
    cfg = PrototypeConfig(unique_blocks=scale.ycsb_blocks,
                          num_writes=scale.ycsb_writes)
    sweep = run_client_sweep(list(schemes), list(CLIENT_COUNTS), cfg)
    rows = []
    for scheme in schemes:
        for res in sweep[scheme]:
            rows.append(Fig12aRow(
                scheme=scheme, clients=res.clients,
                throughput_kops=res.throughput_ops / 1e3,
                bandwidth_bound=res.bandwidth_bound,
                write_amplification=res.write_amplification))
    return rows


def run_fig12b(scale: Scale | None = None) -> list[MemoryReport]:
    scale = scale or current_scale()
    cfg = store_config_for(scale.ycsb_blocks)
    trace = generate_ycsb_a(scale.ycsb_blocks, scale.ycsb_writes,
                            density=8.0, read_ratio=0.0, seed=13)
    sepbit = measure_memory("sepbit", trace, cfg)
    adapt = measure_memory("adapt", trace, cfg,
                           adapt=AdaptConfig(sample_rate=0.01))
    return [sepbit, adapt]


def adapt_speedup(rows: list[Fig12aRow], clients: int) -> dict[str, float]:
    """ADAPT's throughput ratio vs each baseline at ``clients``."""
    mine = {r.scheme: r.throughput_kops for r in rows
            if r.clients == clients}
    adapt = mine["adapt"]
    return {s: adapt / t for s, t in mine.items() if s != "adapt"}


def render_fig12(rows_a: list[Fig12aRow],
                 rows_b: list[MemoryReport]) -> str:
    a = render_table(
        ["scheme", "clients", "throughput_kops", "bw_bound", "WA"],
        [[r.scheme, r.clients, r.throughput_kops, r.bandwidth_bound,
          r.write_amplification] for r in rows_a],
        title="Fig 12a — prototype throughput "
              "(paper: equal at 1 client, ADAPT 1.1-1.58x at 4-8 clients)",
    )
    base = rows_b[0]
    b = render_table(
        ["scheme", "policy_MiB", "mapping_MiB", "total_MiB", "overhead"],
        [[r.scheme, r.policy_bytes / 2**20, r.mapping_bytes / 2**20,
          r.total_bytes / 2**20, r.overhead_vs(base)] for r in rows_b],
        title="Fig 12b — metadata memory (paper: ADAPT ~+4.6% vs SepBIT "
              "at 0.001 sampling)",
    )
    return a + "\n\n" + b
