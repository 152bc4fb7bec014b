"""repro.fleet — sharded multi-process fleet replay.

Replays hundreds of tenant volumes across a process pool with streaming
trace ingestion (per-volume memory O(chunk)), per-shard JSON checkpoints
of the finished volumes (a resume re-replays the rest), and
deterministic fleet-level aggregation.  See ``docs/fleet.md`` for the architecture and
the determinism contract.
"""

from repro.fleet.checkpoint import (
    checkpoint_path,
    load_shard_checkpoint,
    write_shard_checkpoint,
)
from repro.fleet.orchestrator import (
    CHECKPOINT_DIRNAME,
    FleetRunResult,
    RUNINFO_NAME,
    SUMMARY_NAME,
    TIMELINE_DIRNAME,
    run_fleet,
)
from repro.fleet.report import (
    PERCENTILES,
    SUMMARY_SCHEMA,
    aggregate_fleet,
    fleet_summary,
    render_fleet,
    volume_report,
    write_fleet_summary,
)
from repro.fleet.spec import DEFAULT_FLEET_SEED, FleetSpec
from repro.fleet.worker import KILL_ENV, run_shard

__all__ = [
    "CHECKPOINT_DIRNAME",
    "DEFAULT_FLEET_SEED",
    "FleetRunResult",
    "FleetSpec",
    "KILL_ENV",
    "PERCENTILES",
    "RUNINFO_NAME",
    "SUMMARY_NAME",
    "SUMMARY_SCHEMA",
    "TIMELINE_DIRNAME",
    "aggregate_fleet",
    "checkpoint_path",
    "fleet_summary",
    "load_shard_checkpoint",
    "render_fleet",
    "run_fleet",
    "run_shard",
    "volume_report",
    "write_fleet_summary",
]
