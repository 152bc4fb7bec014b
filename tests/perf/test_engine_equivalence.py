"""The replay loop against the per-block path, and its ``engine`` names.

``store.replay`` is one windowed loop for every policy that plans, runs
and settles user writes in batches; ``process_request`` /
``write_block`` do everything one block at a time and stay the scalar
specification.  Without recorders, on the update-heavy workload and
with flush listeners the two must end in the same state, and every recorder hears user writes through the bulk hook.
``"auto"`` and ``"scalar"`` both name the loop, and anything else is
refused before the store is touched.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lss.store import LogStructuredStore
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.conftest import FlushLog
from tests.lss.test_replay_loop import eager_replay


def fresh_store(policy_name, **store_kwargs):
    """A fresh differential-shape store."""
    cfg = differential_config()
    return LogStructuredStore(cfg, make_policy(policy_name, cfg),
                              **store_kwargs)


def assert_states_equal(ref, other):
    assert (ref.mapping == other.mapping).all()
    s, b = dataclasses.asdict(ref.stats), dataclasses.asdict(other.stats)
    sg, bg = s.pop("groups"), b.pop("groups")
    sr, br = s.pop("raid"), b.pop("raid")
    assert s == b
    assert sr == br
    for a, c in zip(sg, bg):
        assert a == c, a["name"]
    assert (ref.group_occupancy() == other.group_occupancy()).all()
    other.check_invariants()


@pytest.mark.parametrize("policy_name", available_policies())
def test_batched_matches_scalar_every_policy(policy_name):
    """The loop — planned, run and settled in batches — ends where the
    per-block scalar specification ends, for every policy, with no
    recorder attached (``tests/lss/test_replay_loop.py`` checks the
    same with every recorder on)."""
    trace = default_workloads(num_requests=600)[0]
    spec = fresh_store(policy_name)
    eager_replay(spec, trace)
    loop = fresh_store(policy_name)
    loop.replay(trace)
    assert_states_equal(spec, loop)
    # The trace is update-heavy enough to exercise GC on this shape.
    assert loop.stats.gc_blocks_written > 0


def test_batched_matches_scalar_update_heavy():
    trace = default_workloads(num_requests=600)[-1]  # YCSB-A
    for policy_name in ("sepgc", "mida", "adapt"):
        spec = fresh_store(policy_name)
        eager_replay(spec, trace)
        loop = fresh_store(policy_name)
        loop.replay(trace)
        assert_states_equal(spec, loop)


def test_flush_listeners_take_the_one_loop():
    """A store with a flush listener replays through the one loop and
    ends where the per-block specification ends."""
    trace = default_workloads(num_requests=200)[0]
    listened = fresh_store("sepgc")
    heard = FlushLog(listened).flushes
    listened.replay(trace)
    assert sum(f.count for f in heard) == \
        sum(g.chunk_flushes for g in listened.stats.groups)
    spec = fresh_store("sepgc")
    eager_replay(spec, trace)
    assert_states_equal(spec, listened)


def test_auto_engine_selects_batched_with_metrics_recorder():
    """A default recorder hears user writes once per settle, never once
    per block."""
    from repro.obs.recorder import ObsRecorder

    class CountingRecorder(ObsRecorder):
        bulk = 0

        def user_writes(self, lbas, locs, start_seq, now_us):
            self.bulk += 1
            super().user_writes(lbas, locs, start_seq, now_us)

    trace = default_workloads(num_requests=300)[0]
    rec = CountingRecorder()
    store = fresh_store("sepgc", recorder=rec)
    store.replay(trace)
    assert 0 < rec.bulk < store.stats.user_blocks_requested / 10


def test_trace_recorder_sampling_every_block_runs_the_loop():
    """A tracing recorder that samples every block makes the loop settle
    after every block — one timeline row each — and ends in the same
    state."""
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    rec = ObsRecorder(1)
    store = fresh_store("sepgc", recorder=rec)
    store.replay(trace)
    # One timeline row per block, plus the finalize row.
    assert len(rec.timeline) == store.stats.user_blocks_requested + 1
    ref = fresh_store("sepgc")
    ref.replay(trace, engine="scalar")
    assert_states_equal(ref, store)


def test_custom_enabled_recorder_hears_every_user_write_in_bulk():
    """A third-party observer that merely subclasses StoreObserver and
    attaches with ``subscribe`` runs the same loop and hears every
    accepted user block through ``user_writes``."""
    from repro.common.observer import StoreObserver

    class CustomRecorder(StoreObserver):
        def __init__(self):
            self.counts = []

        def user_writes(self, lbas, locs, start_seq, now_us):
            self.counts.append(len(lbas))

    trace = default_workloads(num_requests=300)[0]
    rec = CustomRecorder()
    store = fresh_store("sepgc")
    store.subscribe(rec)
    store.replay(trace)
    assert sum(rec.counts) == store.stats.user_blocks_requested
    assert len(rec.counts) < store.stats.user_blocks_requested / 10


def test_unknown_engine_rejected():
    """Only the loop's two names are accepted — the deleted chunk
    engine's ``"batched"`` included — and the store is left untouched."""
    trace = default_workloads(num_requests=100)[0]
    store = fresh_store("sepgc")
    for engine in ("turbo", "batched"):
        with pytest.raises(ValueError, match="unknown replay engine"):
            store.replay(trace, engine=engine)
    assert store.user_seq == 0 and store.stats.write_requests == 0
