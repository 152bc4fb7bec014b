"""One victim ranking per GC run equals a ``select`` per victim.

``GarbageCollector.run`` takes its victims from one
``VictimPolicy.rank`` per run and ranks again only when a seal leaves a
productive segment behind (``SegmentPool.garbage_seals`` moves).  A twin
store whose policy returns ``None`` from ``rank`` is asked per victim,
as every run was before; both must clean the same victims in the same
order and end in the same state, for every placement policy.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lss.store import LogStructuredStore
from repro.placement.registry import available_policies, make_policy
from repro.validate.differential import (default_workloads,
                                         differential_config)

from tests.lss.test_replay_loop import assert_same_outcome

_WORKLOADS = ("ali", "tencent")


def _replay(policy_name, workload_idx, victim, per_victim, **config):
    """Replay one differential workload; returns the store, the victims
    it cleaned in order, its rank calls and its GC runs."""
    cfg = dataclasses.replace(differential_config(victim=victim), **config)
    store = LogStructuredStore(cfg, make_policy(policy_name, cfg))
    victims = store.victim_policy
    if per_victim:
        victims.rank = lambda pool, now_seq: None
    seen = {"victims": [], "ranks": 0, "runs": 0}
    rank, run, clean = victims.rank, store.gc.run, store.gc.clean_segment

    def counted_rank(pool, now_seq):
        seen["ranks"] += 1
        return rank(pool, now_seq)

    def counted_run(now_us):
        seen["runs"] += 1
        return run(now_us)

    def recorded_clean(victim, now_us):
        seen["victims"].append(victim)
        clean(victim, now_us)

    victims.rank = counted_rank
    store.gc.run = counted_run
    store.gc.clean_segment = recorded_clean
    store.replay(default_workloads(num_requests=900)[workload_idx])
    return store, seen


@pytest.mark.parametrize("victim", ["greedy", "cost-benefit"])
@pytest.mark.parametrize("workload_idx", range(len(_WORKLOADS)),
                         ids=_WORKLOADS)
@pytest.mark.parametrize("policy_name", available_policies())
def test_rank_once_per_run_equals_select_per_victim(policy_name,
                                                    workload_idx, victim):
    ranked, seen = _replay(policy_name, workload_idx, victim, False)
    twin, twin_seen = _replay(policy_name, workload_idx, victim, True)
    assert seen["runs"] > 0
    assert seen["victims"] == twin_seen["victims"]
    assert_same_outcome(twin, ranked)


def test_a_seal_with_garbage_mid_run_ranks_again():
    """DAC's MIXED groups take GC blocks into segments whose user blocks
    died: such a segment seals productive during the run, and the run
    ranks again — with the same victims as the per-victim twin.  Long
    runs (a high watermark of 20 free segments) let such a segment win
    before its run ends: without the re-rank the victims diverge."""
    ranked, seen = _replay("dac", 1, "greedy", False, gc_free_high=20)
    twin, twin_seen = _replay("dac", 1, "greedy", True, gc_free_high=20)
    assert seen["ranks"] > seen["runs"]
    assert seen["victims"] == twin_seen["victims"]
    assert_same_outcome(twin, ranked)
