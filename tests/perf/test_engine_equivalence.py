"""Engine choice and loop vs batched replay: bit-identical final state.

The batched engine's whole contract is that chunking is invisible: for
any eligible policy and any trace, the final mapping table, traffic
statistics, per-group breakdowns, RAID accounting, and occupancy must
equal the windowed replay loop's (which ``tests/lss/test_replay_loop.py``
in turn holds to the per-block ``process_request`` specification).
These tests enforce it on the GC-churny differential store shape, where
chunks are forced to split at GC triggers and deadline fires constantly
— and pin that ``auto`` is the loop for every policy while ``batched``
stays selectable, with the predicate's reason when it is not.
"""

from __future__ import annotations

import pytest

from repro.lss.store import LogStructuredStore
from repro.perf.engine import BatchedReplayEngine
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)

#: Single-user-group policies: ``engine="batched"`` can replay them.
BATCHED_POLICIES = ("mida", "midas-lite", "sepgc")
#: Multi-group policies: the batched engine refuses them.
SCALAR_POLICIES = ("adapt", "dac", "sepbit", "warcip")


def engine_under_test(policy_name):
    """The engine the equivalence suites hold against ``"scalar"``: the
    chunk engine where it is eligible, else ``auto`` (the loop again)."""
    return "batched" if policy_name in BATCHED_POLICIES else "auto"


def fresh_store(policy_name, **store_kwargs):
    """A fresh differential-shape store."""
    cfg = differential_config()
    return LogStructuredStore(cfg, make_policy(policy_name, cfg),
                              **store_kwargs)


def replay_pair(policy_name, trace, engine=None):
    """Replay ``trace`` on the loop (``"scalar"``) and on ``engine``
    (default: :func:`engine_under_test`), on fresh stores; return both."""
    scalar = fresh_store(policy_name)
    scalar.replay(trace, engine="scalar")
    other = fresh_store(policy_name)
    other.replay(trace, engine=engine or engine_under_test(policy_name))
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
    """The batched engine, where eligible, equals the loop; ``auto`` is
    the loop for every policy."""
    trace = default_workloads(num_requests=600)[0]
    scalar, other = replay_pair(policy_name, trace)
    assert_states_equal(scalar, other)
    # The trace is update-heavy enough to exercise GC on this shape.
    assert other.stats.gc_blocks_written > 0
    assert scalar.replay_engine == ("scalar",
                                    "engine='scalar' was requested")
    if policy_name in BATCHED_POLICIES:
        assert other.replay_engine == ("batched",
                                       "engine='batched' was requested")
    else:
        engine, reason = other.replay_engine
        assert engine == "scalar" and "every policy" in reason


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
    """The batched engine refuses both, with the predicate's reason;
    ``auto`` replays them on the loop like everything else."""
    import dataclasses
    trace = default_workloads(num_requests=200)[0]
    cfg = dataclasses.replace(differential_config(), sla_mode="first")
    first = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    with pytest.raises(ValueError, match="idle mode"):
        first.replay(trace, engine="batched")
    first.replay(trace)
    assert first.replay_engine[0] == "scalar"
    listened = fresh_store("sepgc")
    listened.flush_listeners.append(lambda group, flush: None)
    with pytest.raises(ValueError, match="flush listeners"):
        listened.replay(trace, engine="batched")
    listened.replay(trace)
    assert listened.replay_engine[0] == "scalar"


def test_auto_engine_selects_batched_with_metrics_recorder():
    """A default (batch-capable) recorder keeps the batched engine
    selectable; ``auto`` is the loop with or without it."""
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    store = fresh_store("sepgc", recorder=ObsRecorder())
    store.replay(trace, engine="batched")
    assert store.replay_engine[0] == "batched"
    store = fresh_store("sepgc", recorder=ObsRecorder())
    store.replay(trace)
    assert store.replay_engine[0] == "scalar"


def test_auto_engine_falls_back_with_trace_recorder():
    """Exact per-event tracing runs the loop's per-request form (one
    ``on_user_write`` per block) and ends in the same state."""
    from repro.obs.recorder import ObsRecorder
    trace = default_workloads(num_requests=300)[0]
    rec = ObsRecorder(trace_events=True, sample_every_blocks=1)
    store = fresh_store("sepgc", recorder=rec)
    store.replay(trace)
    assert store.replay_engine[0] == "scalar"
    # One series row per block, plus the finalize row.
    assert len(rec.series) == store.stats.user_blocks_requested + 1
    ref = fresh_store("sepgc")
    ref.replay(trace, engine="scalar")
    assert_states_equal(ref, store)


def test_auto_engine_falls_back_for_custom_enabled_recorder():
    """A third-party recorder that merely subclasses NullRecorder gets
    the per-event cadence (one ``on_user_write`` per block, no bulk
    hook) unless it opts into the bulk contract via batch_capable."""
    from repro.obs.recorder import NullRecorder

    class CustomRecorder(NullRecorder):
        enabled = True
        writes = bulk = 0

        def on_user_write(self, lba, now_us):
            self.writes += 1

        def on_user_write_bulk(self, count, last_lba, now_us):
            self.bulk += 1

    trace = default_workloads(num_requests=300)[0]
    rec = CustomRecorder()
    store = fresh_store("sepgc", recorder=rec)
    store.replay(trace)
    assert store.replay_engine[0] == "scalar"
    assert rec.writes == store.stats.user_blocks_requested and not rec.bulk


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
