"""Volume replay runner shared by all figure drivers.

``replay_volume`` runs one (scheme, victim-policy, trace) cell and returns
a compact :class:`VolumeResult`; ``run_matrix`` sweeps the full cross
product, optionally across worker processes (per-volume runs are perfectly
parallel — shared-nothing, merged at the end — though the benchmark
default stays serial because the reference machine has one core).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.lss.config import LSSConfig, default_segment_blocks
from repro.lss.store import LogStructuredStore
from repro.obs import profile as obs_profile
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.trace.model import Trace


@dataclass(frozen=True)
class VolumeResult:
    """Headline metrics of one volume replay."""

    volume: str
    scheme: str
    victim: str
    write_amplification: float
    padding_ratio: float
    gc_ratio: float
    user_blocks: int
    flash_blocks: int
    padding_blocks: int
    gc_blocks: int
    shadow_blocks: int
    group_traffic: tuple[dict, ...] = field(default=(), repr=False)
    group_occupancy: tuple[int, ...] = field(default=(), repr=False)
    policy_memory_bytes: int = 0
    #: Observability snapshot (:meth:`repro.obs.ObsRecorder.snapshot`) when
    #: the replay ran with metrics collection; ``None`` otherwise.
    metrics: dict | None = field(default=None, repr=False)
    #: Causal-attribution snapshot
    #: (:meth:`repro.obs.attribution.AttributionRecorder.snapshot`) when
    #: the replay ran with attribution; ``None`` otherwise.
    attribution: dict | None = field(default=None, repr=False)
    #: ``(engine, reason)`` the store recorded for this replay
    #: (:attr:`LogStructuredStore.replay_engine`).
    replay_engine: tuple[str, str] | None = field(default=None, repr=False)


def store_config_for(trace_blocks: int, victim: str = "greedy",
                     seed: int = 0) -> LSSConfig:
    """The standard experiment store configuration for a volume of
    ``trace_blocks`` logical blocks."""
    return LSSConfig(
        logical_blocks=trace_blocks,
        segment_blocks=default_segment_blocks(trace_blocks),
        victim_policy=victim,
        seed=seed,
    )


def replay_volume(scheme: str, trace: Trace, victim: str = "greedy",
                  logical_blocks: int | None = None,
                  collect_groups: bool = False,
                  seed: int = 0,
                  recorder: ObsRecorder | None = None,
                  collect_metrics: bool = False,
                  engine: str = "auto",
                  attribution=None,
                  collect_attribution: bool = False,
                  **policy_kwargs) -> VolumeResult:
    """Replay one volume under one scheme and victim policy.

    ``seed`` reaches the store config (victim-policy RNG, sampler salts).
    Metrics are opt-in: pass ``collect_metrics=True`` for a default
    :class:`~repro.obs.ObsRecorder`, or supply a configured ``recorder``
    (e.g. with a JSONL spill path); either way the result carries the
    recorder's snapshot in :attr:`VolumeResult.metrics`.

    ``engine`` selects the replay engine (``"auto"``/``"batched"``/
    ``"scalar"``, see :meth:`LogStructuredStore.replay`); both engines
    produce identical results, so this only matters for benchmarking.
    The engine that ran, and why, is in :attr:`VolumeResult.replay_engine`.

    Attribution is opt-in the same way as metrics: pass
    ``collect_attribution=True`` for a default
    :class:`~repro.obs.attribution.AttributionRecorder`, or supply a
    configured ``attribution`` sink; the result carries its snapshot in
    :attr:`VolumeResult.attribution`.
    """
    if logical_blocks is None:
        blocks = trace.max_lba() + 1
    else:
        blocks = logical_blocks
    if blocks <= 0:
        raise ValueError(
            f"logical_blocks must be a positive block count, got {blocks}")
    cfg = store_config_for(blocks, victim=victim, seed=seed)
    policy = make_policy(scheme, cfg, **policy_kwargs)
    if recorder is None and collect_metrics:
        recorder = ObsRecorder()
    if attribution is None and collect_attribution:
        from repro.obs.attribution import AttributionRecorder
        attribution = AttributionRecorder()
    with obs_profile.current().span(
            f"cell:{scheme}:{trace.volume}", victim=victim):
        store = LogStructuredStore(cfg, policy, recorder=recorder,
                                   attribution=attribution)
        stats = store.replay(trace, engine=engine)
    groups: tuple[dict, ...] = ()
    occupancy: tuple[int, ...] = ()
    if collect_groups:
        groups = tuple(
            {"name": g.name, "kind": g.kind, "user": g.user_blocks,
             "gc": g.gc_blocks, "shadow": g.shadow_blocks,
             "padding": g.padding_blocks}
            for g in stats.groups)
        occupancy = tuple(int(x) for x in store.group_occupancy())
    return VolumeResult(
        volume=trace.volume,
        scheme=scheme,
        victim=victim,
        write_amplification=stats.write_amplification(),
        padding_ratio=stats.padding_traffic_ratio(),
        gc_ratio=stats.gc_traffic_ratio(),
        user_blocks=stats.user_blocks_requested,
        flash_blocks=stats.flash_blocks_written,
        padding_blocks=stats.padding_blocks_written,
        gc_blocks=stats.gc_blocks_written,
        shadow_blocks=stats.shadow_blocks_written,
        group_traffic=groups,
        group_occupancy=occupancy,
        policy_memory_bytes=policy.memory_bytes(),
        metrics=recorder.snapshot() if recorder is not None else None,
        attribution=(attribution.snapshot()
                     if attribution is not None else None),
        replay_engine=store.replay_engine,
    )


def _cell(args) -> VolumeResult:
    scheme, trace, victim, logical_blocks, collect, seed, metrics, \
        engine = args
    return replay_volume(scheme, trace, victim,
                         logical_blocks=logical_blocks,
                         collect_groups=collect, seed=seed,
                         collect_metrics=metrics, engine=engine)


def run_matrix(schemes: list[str], traces: list[Trace],
               victims: list[str] = ("greedy",),
               logical_blocks: int | None = None,
               collect_groups: bool = False,
               workers: int | None = None,
               seed: int = 0,
               collect_metrics: bool = False,
               engine: str = "auto") -> list[VolumeResult]:
    """Sweep schemes x victims x traces; return the flat result list.

    ``workers=None`` auto-selects: serial on one core, processes
    otherwise — and always serial while a phase profiler is active
    (worker processes cannot report spans back to the parent's
    profiler; a silent parallel run would profile nothing).
    Every cell runs with the same ``seed`` (cells are distinguished by
    their scheme/victim/trace, not by RNG state), and metrics snapshots —
    which pickle cleanly across worker processes — are attached to each
    result when ``collect_metrics`` is set.
    """
    jobs = [(s, t, v, logical_blocks, collect_groups, seed,
             collect_metrics, engine)
            for v in victims for s in schemes for t in traces]
    if workers is None:
        workers = 1 if obs_profile.current().enabled \
            else min(os.cpu_count() or 1, 8)
    if workers <= 1 or len(jobs) == 1:
        return [_cell(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_cell, jobs, chunksize=1))


def overall_write_amplification(results: list[VolumeResult]) -> float:
    """Traffic-weighted WA across volumes (the paper's bar height)."""
    user = sum(r.user_blocks for r in results)
    flash = sum(r.flash_blocks for r in results)
    return flash / user if user else 0.0


def overall_padding_ratio(results: list[VolumeResult]) -> float:
    flash = sum(r.flash_blocks for r in results)
    pad = sum(r.padding_blocks for r in results)
    return pad / flash if flash else 0.0
