"""Which public calls of ``repro`` get a span, and how span aggregates
and store counters become the per-layer metrics of ``BENCHMARK.json``.

The span names are the layer names of the metric table in README.md.
Three rules keep the traced pass on the same code path as the untraced
one (the harness fails the run if the simulated counters differ):

* ``PlacementPolicy.on_chunk_flush`` / ``before_padding_flush`` /
  ``on_full_flush_run`` are never wrapped — ``store.py`` picks its
  ``_fast_flush`` / ``_fast_full`` paths by comparing those attributes;
* every other hook is wrapped on the class that defines it
  (:meth:`Tracer.install`), which keeps ``type(p).hook is Base.hook``
  true exactly where it was true before;
* a name imported with ``from x import f`` is patched in the importing
  module, because that is the binding the caller reads.
"""

from __future__ import annotations

import os

ROOT_SPAN = "bench.root"


def install_all(tracer, on_store) -> None:
    """Wrap every call of the table.  ``on_store(store)`` is called with
    each finished fleet tenant's store (replay cells hand their stores
    to the harness directly)."""
    import repro.fleet.orchestrator as orchestrator
    import repro.fleet.worker as worker
    import repro.perf.engine as engine
    from repro.core.aggregation import CrossGroupAggregator
    from repro.core.demotion import ProactiveDemotion
    from repro.core.distance import DistanceTracker
    from repro.core.sampling import SpatialSampler
    from repro.core.threshold import ThresholdLadder
    from repro.lss.gc import GarbageCollector
    from repro.lss.group import Group
    from repro.lss.segment import SegmentPool
    from repro.lss.store import LogStructuredStore
    from repro.lss.victim import VictimPolicy
    from repro.obs.attribution import AttributionRecorder
    from repro.obs.recorder import ObsRecorder
    from repro.placement.base import PlacementPolicy
    from repro.trace.stream import SyntheticVolumeStream

    # Importing the packages defines every registered policy class (the
    # registry loads ``adapt`` lazily) before subclasses are walked.
    import repro.core.policy  # noqa: F401
    import repro.placement  # noqa: F401

    ins = tracer.install
    ins(engine, "expand_trace", "perf.expand")
    ins(engine.BatchedReplayEngine, "replay", "perf.engine")

    placement = {"place_user": "placement.user",
                 "place_user_batch": "placement.user",
                 "candidate_user_gids": "placement.candidates",
                 "place_gc": "placement.gc",
                 "place_gc_batch": "placement.gc"}
    tracer.install_on_subclasses(PlacementPolicy, placement,
                                 placement.__getitem__)

    ins(SpatialSampler, "is_sampled_batch", "core.sampling")
    ins(DistanceTracker, "access", "core.distance", lambda a, k, r: 1)
    ins(DistanceTracker, "access_many", "core.distance",
        lambda a, k, r: len(a[1]))
    ins(ThresholdLadder, "record", "core.ghost", lambda a, k, r: 1)
    ins(ThresholdLadder, "record_batch", "core.ghost",
        lambda a, k, r: len(a[1]))
    ins(ThresholdLadder, "adapt", "core.threshold")
    ins(ProactiveDemotion, "demotion_target", "core.demotion")
    ins(ProactiveDemotion, "demotion_targets", "core.demotion")
    ins(ProactiveDemotion, "on_gc_block", "core.demotion.gc_hook")
    ins(CrossGroupAggregator, "try_aggregate", "core.aggregation")
    ins(CrossGroupAggregator, "absorb_before_padding", "core.aggregation")

    ins(LogStructuredStore, "apply_user_batch", "lss.store.apply")
    ins(LogStructuredStore, "write_block", "lss.store.write_block")
    ins(LogStructuredStore, "tick", "lss.store.tick")
    ins(LogStructuredStore, "finalize", "lss.store.finalize")
    ins(Group, "append_user_run", "lss.group.append",
        lambda a, k, r: len(a[2]))
    ins(GarbageCollector, "run", "lss.gc")
    tracer.install_on_subclasses(VictimPolicy, ("select",),
                                 lambda attr: "lss.victim")
    ins(SegmentPool, "invalidate_many", "lss.segment.invalidate")

    ins(SyntheticVolumeStream, "chunk", "trace.generate")
    ins(worker, "write_shard_checkpoint", "fleet.checkpoint",
        lambda a, k, r: os.path.getsize(a[0]))
    ins(worker, "volume_report", "fleet.report",
        lambda a, k, r: on_store(a[2]) or 0)
    ins(orchestrator, "fleet_summary", "fleet.report")
    ins(orchestrator, "write_fleet_summary", "fleet.report")
    ins(orchestrator, "run_shard", "fleet.shard")
    ins(ObsRecorder, "snapshot", "obs.snapshot")
    ins(AttributionRecorder, "snapshot", "obs.snapshot")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_metrics(spans: dict, counters: dict, trace_stats: dict,
                   fleet_chunks: int) -> dict:
    """Per-layer metrics that one traced pass determines.

    ``spans`` is :meth:`Tracer.aggregates`, ``counters`` the
    :func:`workloads.store_counters` sums over the pass's stores,
    ``trace_stats`` the workload's request/user-block/unique-LBA totals.
    """
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def units(name):
        return spans.get(name, {}).get("units", 0)

    user = counters["user"]
    scalar_blocks = calls("lss.store.write_block")
    return {
        "trace.requests": trace_stats["requests"],
        "trace.user_blocks": trace_stats["user_blocks"],
        "trace.overwrite_factor": _ratio(trace_stats["user_blocks"],
                                         trace_stats["unique_lbas"]),
        "perf.expand.calls": calls("perf.expand"),
        "perf.expand.self_s": self_s("perf.expand"),
        "perf.engine.replay_calls": calls("perf.engine"),
        "perf.engine.self_s": self_s("perf.engine"),
        "perf.engine.chunks": calls("lss.store.apply"),
        "perf.engine.blocks_per_chunk": _ratio(user - scalar_blocks,
                                               calls("lss.store.apply")),
        "perf.engine.scalar_fallback_share": _ratio(scalar_blocks, user),
        "placement.user_calls": calls("placement.user"),
        "placement.user_self_s": self_s("placement.user"),
        "placement.blocks_per_call": _ratio(user, calls("placement.user")),
        "placement.candidates_self_s": self_s("placement.candidates"),
        "placement.gc_self_s": self_s("placement.gc"),
        "core.sampling.self_s": self_s("core.sampling"),
        "core.distance.self_s": self_s("core.distance"),
        "core.distance.accesses": units("core.distance"),
        "core.ghost.self_s": self_s("core.ghost"),
        "core.ghost.samples": units("core.ghost"),
        "core.threshold.adaptations": calls("core.threshold"),
        "core.demotion.self_s": self_s("core.demotion"),
        "core.demotion.gc_hook_self_s": self_s("core.demotion.gc_hook"),
        "core.demotion.demoted_share": _ratio(counters["demotions"], user),
        "core.aggregation.self_s": self_s("core.aggregation"),
        "core.aggregation.attempts": calls("core.aggregation"),
        "core.aggregation.shadow_per_user_block": _ratio(
            counters["shadow"], user),
        "core.policy.memory_bytes_per_block": _ratio(
            counters["policy_bytes"], counters["logical_blocks"]),
        "lss.store.apply_self_s": self_s("lss.store.apply"),
        "lss.store.write_block_calls": scalar_blocks,
        "lss.store.write_block_self_s": self_s("lss.store.write_block"),
        "lss.store.tick_calls": calls("lss.store.tick"),
        "lss.store.tick_self_s": self_s("lss.store.tick"),
        "lss.store.finalize_s": self_s("lss.store.finalize"),
        "lss.group.append_run_calls": calls("lss.group.append"),
        "lss.group.append_self_s": self_s("lss.group.append"),
        "lss.group.blocks_per_run": _ratio(units("lss.group.append"),
                                           calls("lss.group.append")),
        "array.coalescing.chunk_flushes": counters["chunk_flushes"],
        "array.coalescing.deadline_flush_share": _ratio(
            counters["deadline_flushes"], counters["chunk_flushes"]),
        "array.coalescing.padding_per_user_block": _ratio(
            counters["padding"], user),
        "lss.gc.runs": calls("lss.gc"),
        "lss.gc.self_s": self_s("lss.gc"),
        "lss.gc.segments_reclaimed": counters["gc_segments"],
        "lss.gc.blocks_migrated": counters["gc_migrated"],
        "lss.gc.gc_per_user_block": _ratio(counters["gc"], user),
        "lss.gc.victim_valid_share": _ratio(counters["gc_migrated"],
                                            counters["segment_slots"]),
        "lss.victim.selects": calls("lss.victim"),
        "lss.victim.self_s": self_s("lss.victim"),
        "lss.segment.invalidate_many_calls": calls("lss.segment.invalidate"),
        "lss.segment.invalidate_self_s": self_s("lss.segment.invalidate"),
        "fleet.chunks": fleet_chunks,
        "fleet.checkpoint_writes": calls("fleet.checkpoint"),
        "fleet.checkpoint_self_s": self_s("fleet.checkpoint"),
        "fleet.checkpoint_bytes": units("fleet.checkpoint"),
        "fleet.report_self_s": self_s("fleet.report"),
        "fleet.shard_overhead_s": self_s("fleet.shard"),
        "obs.snapshot_self_s": self_s("obs.snapshot"),
    }
