"""Metadata memory accounting (Fig 12b).

The paper compares ADAPT's resident metadata against SepBIT's, since both
run two user groups + four GC groups with a lifespan-based policy: the
delta is ADAPT's sampling module (~44 B per sampled block) plus the ghost
sets (~20 B per simulated block) plus the RA cascades, and comes to a few
percent at the paper's 0.001 sampling rate.  The cascades hold exact
member sets; they are counted at the closed-form Bloom-filter budget the
paper's design carries, so that term is a model, not a measurement.
``measure_memory`` replays a workload and reads each policy's own
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.trace.model import Trace


@dataclass(frozen=True)
class MemoryReport:
    """Measured metadata footprints after a replay."""

    scheme: str
    policy_bytes: int           # per-LBA tables, samplers, ghost sets, RA
    mapping_bytes: int          # LBA -> location table (shared by all)
    write_amplification: float

    @property
    def total_bytes(self) -> int:
        return self.policy_bytes + self.mapping_bytes

    def overhead_vs(self, baseline: "MemoryReport") -> float:
        """Relative extra memory vs a baseline scheme (the paper reports
        ADAPT at +4.56 % over SepBIT)."""
        if baseline.total_bytes == 0:
            return 0.0
        return self.total_bytes / baseline.total_bytes - 1.0


def measure_memory(scheme: str, trace: Trace, config: LSSConfig,
                   **policy_kwargs) -> MemoryReport:
    """Replay ``trace`` under ``scheme`` and report its memory footprint."""
    policy = make_policy(scheme, config, **policy_kwargs)
    store = LogStructuredStore(config, policy)
    stats = store.replay(trace)
    return MemoryReport(
        scheme=scheme,
        policy_bytes=policy.memory_bytes(),
        mapping_bytes=int(store.mapping.nbytes),
        write_amplification=stats.write_amplification(),
    )
