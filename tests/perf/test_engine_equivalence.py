"""Engine choice and scalar vs batched replay: bit-identical final state.

The batched engine's whole contract is that chunking is invisible: for
any eligible policy and any trace, the final mapping table, traffic
statistics, per-group breakdowns, RAID accounting, and occupancy must
equal the scalar per-request loop's.  These tests enforce it on the
GC-churny differential store shape, where chunks are forced to split at
GC triggers and deadline fires constantly — and pin which engine
``auto`` picks for each policy, and why.
"""

from __future__ import annotations

import pytest

from repro.lss.store import LogStructuredStore
from repro.perf.engine import BatchedReplayEngine
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)

#: Single-user-group policies: ``auto`` replays them in chunks.
BATCHED_POLICIES = ("mida", "midas-lite", "sepgc")
#: Multi-group policies: ``auto`` routes them to the scalar loop.
SCALAR_POLICIES = ("adapt", "dac", "sepbit", "warcip")


def fresh_store(policy_name, **store_kwargs):
    """A fresh differential-shape store."""
    cfg = differential_config()
    return LogStructuredStore(cfg, make_policy(policy_name, cfg),
                              **store_kwargs)


def replay_pair(policy_name, trace, engine="auto"):
    """Replay ``trace`` on the scalar loop and on ``engine`` (fresh
    stores); return both."""
    scalar = fresh_store(policy_name)
    scalar.replay(trace, engine="scalar")
    other = fresh_store(policy_name)
    other.replay(trace, engine=engine)
    return scalar, other


def assert_states_equal(scalar, batched):
    assert (scalar.mapping == batched.mapping).all()
    s, b = vars(scalar.stats).copy(), vars(batched.stats).copy()
    sg, bg = s.pop("groups"), b.pop("groups")
    sr, br = s.pop("raid"), b.pop("raid")
    assert s == b
    assert vars(sr) == vars(br)
    for a, c in zip(sg, bg):
        assert vars(a) == vars(c), a.name
    assert (scalar.group_occupancy() == batched.group_occupancy()).all()
    batched.check_invariants()


def test_policy_lists_cover_the_registry():
    assert sorted(BATCHED_POLICIES + SCALAR_POLICIES) == \
        sorted(available_policies())


@pytest.mark.parametrize("policy_name", available_policies())
def test_batched_matches_scalar_every_policy(policy_name):
    """``auto`` equals the scalar loop for every policy, and is the
    batched engine exactly for the single-user-group ones."""
    trace = default_workloads(num_requests=600)[0]
    scalar, auto = replay_pair(policy_name, trace)
    assert_states_equal(scalar, auto)
    # The trace is update-heavy enough to exercise GC on this shape.
    assert auto.stats.gc_blocks_written > 0
    assert scalar.replay_engine == ("scalar",
                                    "engine='scalar' was requested")
    engine, reason = auto.replay_engine
    if policy_name in BATCHED_POLICIES:
        assert engine == "batched"
    else:
        assert engine == "scalar"
        assert "more than one group" in reason


def test_batched_matches_scalar_update_heavy():
    trace = default_workloads(num_requests=600)[-1]  # YCSB-A
    for policy_name in ("sepgc", "mida"):
        scalar, batched = replay_pair(policy_name, trace, engine="batched")
        assert_states_equal(scalar, batched)


@pytest.mark.parametrize("policy_name", SCALAR_POLICIES)
def test_batched_engine_rejects_multi_group_policy(policy_name):
    """``engine="batched"`` and the constructor refuse with the reason
    the predicate gives, and leave the store untouched."""
    trace = default_workloads(num_requests=100)[0]
    store = fresh_store(policy_name)
    reason = BatchedReplayEngine.ineligible_reason(store)
    assert policy_name in reason and "more than one group" in reason
    with pytest.raises(ValueError) as by_replay:
        store.replay(trace, engine="batched")
    with pytest.raises(ValueError) as by_constructor:
        BatchedReplayEngine(store)
    assert reason in str(by_replay.value)
    assert str(by_replay.value) == str(by_constructor.value)
    assert store.replay_engine is None and store.user_seq == 0


def test_batched_engine_rejects_trace_recorder():
    """Exact per-event tracing cannot be batched; the engine says so."""
    from repro.obs.recorder import ObsRecorder
    store = fresh_store("sepgc", recorder=ObsRecorder(trace_events=True))
    with pytest.raises(ValueError, match="batch-capable"):
        BatchedReplayEngine(store)


def test_first_mode_and_flush_listeners_take_the_scalar_loop():
    import dataclasses
    trace = default_workloads(num_requests=200)[0]
    cfg = dataclasses.replace(differential_config(), sla_mode="first")
    first = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    first.replay(trace)
    assert first.replay_engine[0] == "scalar"
    assert "idle mode" in first.replay_engine[1]
    listened = fresh_store("sepgc")
    listened.flush_listeners.append(lambda group, flush: None)
    listened.replay(trace)
    assert listened.replay_engine[0] == "scalar"
    assert "flush listeners" in listened.replay_engine[1]


def test_auto_engine_selects_batched_with_metrics_recorder():
    """A default (batch-capable) recorder keeps the fast engine."""
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    store = fresh_store("sepgc", recorder=ObsRecorder())
    store.replay(trace)
    assert store.replay_engine[0] == "batched"


def test_auto_engine_falls_back_with_trace_recorder():
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    store = fresh_store("sepgc", recorder=ObsRecorder(trace_events=True))
    store.replay(trace)
    assert store.replay_engine[0] == "scalar"
    assert "batch-capable" in store.replay_engine[1]
    ref = fresh_store("sepgc")
    ref.replay(trace, engine="scalar")
    assert (store.mapping == ref.mapping).all()


def test_auto_engine_falls_back_for_custom_enabled_recorder():
    """A third-party recorder that merely subclasses NullRecorder gets
    the scalar engine (per-event cadence) unless it opts into the bulk
    contract via batch_capable."""
    from repro.obs.recorder import NullRecorder

    class CustomRecorder(NullRecorder):
        enabled = True

    trace = default_workloads(num_requests=300)[0]
    store = fresh_store("sepgc", recorder=CustomRecorder())
    store.replay(trace)
    assert store.replay_engine[0] == "scalar"


def test_unknown_engine_rejected():
    trace = default_workloads(num_requests=100)[0]
    store = fresh_store("sepgc")
    with pytest.raises(ValueError, match="unknown replay engine"):
        store.replay(trace, engine="turbo")


def test_user_placement_gids_cover_actual_placements():
    """Every gid a policy actually returns must be inside its declared
    user-placement domain — engine eligibility and the single-group
    capacity bound both rest on that set."""
    trace = default_workloads(num_requests=600)[0]
    for policy_name in available_policies():
        store = fresh_store(policy_name)
        domain = set(store.policy.user_placement_gids())
        assert domain <= set(range(len(store.groups)))
        seen: set[int] = set()
        orig = store.policy.place_user

        def spy(lba, now_us, _orig=orig, _seen=seen):
            gid = _orig(lba, now_us)
            _seen.add(gid)
            return gid

        store.policy.place_user = spy
        store.replay(trace, engine="scalar")
        assert seen <= domain, \
            f"{policy_name} placed into {seen - domain} outside its domain"
