"""Fleet orchestrator: shard the tenants, run the workers, merge the run.

``run_fleet`` is the one entry point: it derives ``num_shards`` from the
worker count, runs every shard — inline for ``workers<=1`` (zero
process overhead, the differential-testing baseline) or on a
``ProcessPoolExecutor`` otherwise — and merges shard results into the
deterministic fleet summary.  A worker process dying mid-run (real
crash, or the CI kill hook) surfaces as ``BrokenProcessPool``; the
orchestrator reports the run as interrupted instead of raising, and the
next invocation with ``resume=True`` picks up from the per-shard
checkpoints.

The summary JSON carries no wall-clock data (see
:mod:`repro.fleet.report`); elapsed time and worker geometry land in a
separate ``fleet_runinfo.json`` so the summary stays byte-identical
across serial, sharded and interrupted-then-resumed runs.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.fleet.report import fleet_summary, write_fleet_summary
from repro.fleet.spec import FleetSpec
from repro.fleet.worker import run_shard

#: File names written under ``out_dir``.
SUMMARY_NAME = "fleet_summary.json"
RUNINFO_NAME = "fleet_runinfo.json"
CHECKPOINT_DIRNAME = "checkpoints"
TIMELINE_DIRNAME = "timelines"


@dataclass
class FleetRunResult:
    """Outcome of one ``run_fleet`` invocation."""

    spec: FleetSpec
    num_shards: int
    complete: bool
    volumes: list[dict] = field(default_factory=list)
    summary: dict | None = None
    summary_path: str | None = None
    interrupted_shards: list[int] = field(default_factory=list)
    chunks_replayed: int = 0
    seconds: float = 0.0
    #: ``(engine, reason)`` the tenant stores recorded (one spec, so one
    #: answer for the fleet); ``None`` when no chunk was replayed.
    replay_engine: tuple[str, str] | None = None


def _shard_kwargs(spec: FleetSpec, num_shards: int, out_dir: str | None,
                  checkpoint_every: int, resume: bool,
                  stop_after_chunks: int | None) -> list[dict]:
    checkpoint_dir = None
    timeline_dir = None
    if out_dir is not None:
        checkpoint_dir = os.path.join(out_dir, CHECKPOINT_DIRNAME)
        if spec.timeline_every:
            timeline_dir = os.path.join(out_dir, TIMELINE_DIRNAME)
    return [dict(spec=spec, shard=shard, num_shards=num_shards,
                 checkpoint_dir=checkpoint_dir,
                 checkpoint_every=checkpoint_every, resume=resume,
                 stop_after_chunks=stop_after_chunks,
                 timeline_dir=timeline_dir)
            for shard in range(num_shards)]


def _run_shard_kwargs(kwargs: dict) -> dict:
    # Module-level pickle target for ProcessPoolExecutor submission.
    return run_shard(**kwargs)


def run_fleet(spec: FleetSpec, workers: int = 1,
              checkpoint_every: int = 0, out_dir: str | None = None,
              resume: bool = False,
              stop_after_chunks: int | None = None) -> FleetRunResult:
    """Replay the whole fleet; write summary artifacts when complete.

    Args:
        spec: the fleet definition (determines every tenant's trace and
            store; see :class:`~repro.fleet.spec.FleetSpec`).
        workers: process count; also the shard count, so a resumed run
            must reuse the worker count of the interrupted run.
        checkpoint_every: checkpoint a shard after this many replayed
            chunks (0 disables; volume completions always checkpoint
            when an ``out_dir`` is set and this is > 0).
        out_dir: artifact directory (summary, run info, checkpoints,
            optional timelines).  Required for checkpoint/resume.
        resume: load per-shard checkpoints from ``out_dir`` and continue.
        stop_after_chunks: per-shard graceful stop after N chunks (test
            hook; the run reports ``complete=False``).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if (checkpoint_every > 0 or resume) and out_dir is None:
        raise ValueError("checkpointing and resume require out_dir")
    num_shards = workers
    if resume:
        _check_resume_geometry(out_dir, num_shards)
    shard_kwargs = _shard_kwargs(spec, num_shards, out_dir,
                                 checkpoint_every, resume,
                                 stop_after_chunks)
    started = time.perf_counter()
    results: list[dict] = []
    broken = False
    if workers <= 1:
        for kwargs in shard_kwargs:
            results.append(run_shard(**kwargs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_shard_kwargs, kwargs)
                       for kwargs in shard_kwargs]
            for future in futures:
                try:
                    results.append(future.result())
                except BrokenProcessPool:
                    broken = True
                    break
    seconds = time.perf_counter() - started

    interrupted = sorted(r["shard"] for r in results if r["interrupted"])
    complete = (not broken and not interrupted
                and len(results) == num_shards)
    volumes = sorted((v for r in results for v in r["completed"]),
                     key=lambda v: v["volume"])
    out = FleetRunResult(
        spec=spec, num_shards=num_shards, complete=complete,
        volumes=volumes, interrupted_shards=interrupted,
        chunks_replayed=sum(r["chunks_replayed"] for r in results),
        seconds=seconds,
        replay_engine=next((r["replay_engine"] for r in results
                            if r["replay_engine"]), None))
    if complete:
        out.summary = fleet_summary(spec, num_shards, volumes)
        if out_dir is not None:
            out.summary_path = write_fleet_summary(
                out.summary, os.path.join(out_dir, SUMMARY_NAME))
            _write_runinfo(out, out_dir)
    return out


def _check_resume_geometry(out_dir: str, num_shards: int) -> None:
    """Fail loudly when resuming with a different worker count.

    Checkpoint file names encode their shard geometry, so a mismatched
    resume would otherwise just miss every checkpoint and silently
    replay from scratch.
    """
    from repro.common.errors import CheckpointError
    ckpt_dir = os.path.join(out_dir, CHECKPOINT_DIRNAME)
    try:
        names = [n for n in os.listdir(ckpt_dir) if n.endswith(".ckpt")]
    except OSError:
        return
    suffix = f"-of-{num_shards:04d}.ckpt"
    stale = sorted(n for n in names if not n.endswith(suffix))
    if stale:
        raise CheckpointError(
            f"{ckpt_dir} holds checkpoints for a different shard "
            f"geometry ({stale[0]}, ...): resume with the worker count "
            f"of the interrupted run, not {num_shards}")


def _write_runinfo(result: FleetRunResult, out_dir: str) -> None:
    """Timing/geometry sidecar — everything banned from the summary."""
    from repro.obs.atomicio import atomic_write
    info = {
        "seconds": result.seconds,
        "workers": result.num_shards,
        "chunks_replayed": result.chunks_replayed,
        "replay_engine": result.replay_engine,
        "volumes": len(result.volumes),
        "blocks_per_sec": (
            sum(v["stats"]["user_blocks_requested"]
                for v in result.volumes) / result.seconds
            if result.seconds > 0 else 0.0),
    }
    with atomic_write(os.path.join(out_dir, RUNINFO_NAME)) as f:
        json.dump(info, f, indent=2, sort_keys=True)
        f.write("\n")


__all__ = ["CHECKPOINT_DIRNAME", "FleetRunResult", "RUNINFO_NAME",
           "SUMMARY_NAME", "TIMELINE_DIRNAME", "run_fleet"]
