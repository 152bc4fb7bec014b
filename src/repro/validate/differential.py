"""Differential replay: fast store vs. dict-based oracle.

Replays the same trace through the NumPy-backed
:class:`~repro.lss.store.LogStructuredStore` and the pure-python
:class:`~repro.validate.oracle.OracleStore`, each driving its own fresh
instance of the same placement policy, then diffs

* the final LBA → location mapping table,
* the traffic summary (``StoreStats.summary`` keys, exact equality),
* per-group traffic breakdowns,
* RAID-5 data/parity chunk accounting, and
* per-group occupancy.

Any divergence means the two independently written bookkeeping
implementations disagree — the fast store's vectorised state machine no
longer matches the obviously-correct model.  The fast replay additionally
runs under an :class:`~repro.validate.audit.InvariantAuditor`, so a sweep
exercises the invariant catalogue on live stores as well, and its final
state must match what the crash-recovery scan
(:func:`~repro.lss.recovery.verify_recovery`) rebuilds from the segment
pool's slot metadata alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lss.config import LSSConfig
from repro.lss.recovery import verify_recovery
from repro.lss.store import UNMAPPED, LogStructuredStore, check_engine
from repro.placement.registry import available_policies, make_policy
from repro.trace.model import Trace
from repro.validate.audit import InvariantAuditor
from repro.validate.oracle import OracleStore

#: Mapping/stat mismatches listed per cell before truncation.
MAX_DIFFS_LISTED = 8
#: Logical blocks of the sweep's store and of its workloads.
LOGICAL_BLOCKS = 1024


def differential_config(logical_blocks: int = LOGICAL_BLOCKS,
                        victim: str = "greedy",
                        seed: int = 0) -> LSSConfig:
    """A small, GC-churny store shape: 4-block chunks, 16-block segments,
    enough over-provisioning headroom for the widest policy group set."""
    from repro.array.chunk import ChunkGeometry
    return LSSConfig(
        logical_blocks=logical_blocks,
        segment_blocks=16,
        chunk=ChunkGeometry(chunk_bytes=16 * 1024),  # 4 blocks per chunk
        over_provisioning=0.6,
        gc_free_low=4,
        gc_free_high=6,
        victim_policy=victim,
        seed=seed,
    )


def default_workloads(num_requests: int = 1200,
                      seed: int = 1) -> list[Trace]:
    """The standard differential workload set: the three cloud profiles
    plus an update-heavy YCSB-A stream, all scaled to the tiny store."""
    from repro.trace.synthetic.cloud import generate_fleet
    from repro.trace.synthetic.ycsb import DensityPreset, generate_ycsb_a
    traces = []
    for profile in ("ali", "tencent", "msrc"):
        traces.append(generate_fleet(profile, 1,
                                     unique_blocks=LOGICAL_BLOCKS,
                                     num_requests=num_requests,
                                     seed=seed)[0])
    traces.append(generate_ycsb_a(
        unique_blocks=LOGICAL_BLOCKS,
        num_writes=max(num_requests // 2, 1),
        density=DensityPreset.MEDIUM, seed=seed))
    return traces


@dataclass
class CellResult:
    """Outcome of one (policy, trace) differential cell."""

    policy: str
    workload: str
    fast_wa: float
    oracle_wa: float
    mapping_diffs: int
    stat_diffs: list[str] = field(default_factory=list)
    audits_run: int = 0

    @property
    def ok(self) -> bool:
        return self.mapping_diffs == 0 and not self.stat_diffs


@dataclass
class DifferentialReport:
    """All cells of one sweep."""

    cells: list[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if not c.ok]


def diff_mappings(fast: LogStructuredStore, oracle: OracleStore) -> int:
    """Number of LBAs whose final physical location differs."""
    oracle_map = oracle.mapping_table()
    diffs = 0
    for lba in range(fast.config.logical_blocks):
        f = int(fast.mapping[lba])
        o = oracle_map.get(lba, UNMAPPED)
        if f != o:
            diffs += 1
    return diffs


def diff_stats(fast: LogStructuredStore,
               oracle: OracleStore) -> list[str]:
    """Human-readable list of every statistic the two stores disagree on."""
    diffs: list[str] = []
    fs, os_ = fast.stats.summary(), oracle.stats.summary()
    for key in fs:
        if fs[key] != os_.get(key):
            diffs.append(f"summary.{key}: fast={fs[key]} "
                         f"oracle={os_.get(key)}")
    fr, orr = fast.stats.raid, oracle.stats.raid
    if fr.data_chunks != orr.data_chunks:
        diffs.append(f"raid.data_chunks: fast={fr.data_chunks} "
                     f"oracle={orr.data_chunks}")
    if fr.parity_chunks != orr.parity_chunks:
        diffs.append(f"raid.parity_chunks: fast={fr.parity_chunks} "
                     f"oracle={orr.parity_chunks}")
    for fg, og in zip(fast.stats.groups, oracle.stats.group_traffic):
        for key in ("user_blocks", "gc_blocks", "shadow_blocks",
                    "padding_blocks", "chunk_flushes", "deadline_flushes",
                    "forced_flushes"):
            fv, ov = getattr(fg, key), og[key]
            if fv != ov:
                diffs.append(f"group[{fg.name}].{key}: fast={fv} "
                             f"oracle={ov}")
    focc = [int(x) for x in fast.group_occupancy()]
    oocc = oracle.group_occupancy()
    if focc != oocc:
        diffs.append(f"group_occupancy: fast={focc} oracle={oocc}")
    return diffs[:MAX_DIFFS_LISTED]


def run_cell(policy_name: str, trace: Trace, config: LSSConfig,
             audit_every: int = 512) -> CellResult:
    """Replay ``trace`` through both stores under ``policy_name``.

    The fast store runs the replay loop production replays use, and the
    oracle the per-block dict model driving its policy unplanned, so
    every sweep checks the loop's window plans, deferred settles and
    bulk GC for every policy.  The fast store's mapping and validity
    must also survive a crash-recovery rebuild (an ``AssertionError``
    otherwise).
    """
    auditor = InvariantAuditor(every_blocks=audit_every)
    fast = LogStructuredStore(config, make_policy(policy_name, config),
                              auditor=auditor)
    fast.replay(trace)
    fast.check_invariants()
    verify_recovery(fast)

    oracle = OracleStore(config, make_policy(policy_name, config))
    oracle.replay(trace)
    oracle.check_invariants()

    return CellResult(
        policy=policy_name,
        workload=trace.volume,
        fast_wa=fast.stats.write_amplification(),
        oracle_wa=oracle.stats.summary()["write_amplification"],
        mapping_diffs=diff_mappings(fast, oracle),
        stat_diffs=diff_stats(fast, oracle),
        audits_run=auditor.audits_run,
    )


def run_differential(policies: list[str] | None = None,
                     workloads: list[Trace] | None = None,
                     num_requests: int = 1200,
                     victim: str = "greedy",
                     seed: int = 1,
                     engine: str = "auto") -> DifferentialReport:
    """Sweep policies x workloads; every registered policy by default.

    ``engine`` is checked, not used: ``"auto"`` and ``"scalar"`` both
    name the one replay loop (``bench/`` passes it)."""
    check_engine(engine)
    if policies is None:
        policies = available_policies()
    if workloads is None:
        workloads = default_workloads(num_requests, seed)
    config = differential_config(victim=victim, seed=seed)
    report = DifferentialReport()
    for policy in policies:
        for trace in workloads:
            report.cells.append(run_cell(policy, trace, config))
    return report


def render_report(report: DifferentialReport) -> str:
    """Table + failure detail for the CLI and CI logs."""
    from repro.experiments.report import render_table
    rows = []
    for c in report.cells:
        rows.append([f"{c.policy}", c.workload, f"{c.fast_wa:.4f}",
                     f"{c.oracle_wa:.4f}", c.mapping_diffs,
                     len(c.stat_diffs), c.audits_run,
                     "ok" if c.ok else "FAIL"])
    out = render_table(
        ["policy", "workload", "WA(fast)", "WA(oracle)", "map_diffs",
         "stat_diffs", "audits", "status"],
        rows, title="differential sweep: fast store vs oracle")
    for c in report.failures:
        out += f"\nFAIL {c.policy} on {c.workload}:"
        if c.mapping_diffs:
            out += f"\n  {c.mapping_diffs} mapping entries differ"
        for d in c.stat_diffs:
            out += f"\n  {d}"
    if report.ok:
        out += (f"\nall {len(report.cells)} cells match the oracle "
                f"(zero mapping/stats diffs)")
    return out
