"""Victim-selection policies."""

import pytest

from repro.lss.segment import SegmentPool
from repro.lss.victim import (
    CostBenefitVictim,
    DChoiceVictim,
    GreedyVictim,
    RandomGreedyVictim,
    WindowedGreedyVictim,
    available_victim_policies,
    make_victim_policy,
)


def build_pool(valid_counts, seal_times=None):
    """Pool with one sealed segment per entry holding `n` valid blocks."""
    pool = SegmentPool(num_segments=len(valid_counts) + 2, segment_blocks=8)
    seal_times = seal_times or list(range(len(valid_counts)))
    segs = []
    for n, when in zip(valid_counts, seal_times):
        seg = pool.allocate(0, 0)
        for i in range(8):
            pool.append_block(seg, i)
        pool.seal(seg, when)
        for slot in range(n, 8):
            pool.invalidate(seg * 8 + slot)
        segs.append(seg)
    return pool, segs


def test_greedy_picks_min_valid():
    pool, segs = build_pool([5, 2, 7])
    assert GreedyVictim().select(pool, now_seq=100) == segs[1]


def test_greedy_skips_full_segments():
    pool, segs = build_pool([8, 6])
    assert GreedyVictim().select(pool, now_seq=10) == segs[1]


def test_greedy_returns_none_when_nothing_productive():
    pool, _ = build_pool([8, 8])
    assert GreedyVictim().select(pool, now_seq=10) is None


def test_greedy_no_sealed_segments():
    pool = SegmentPool(4, 8)
    assert GreedyVictim().select(pool, now_seq=0) is None


def test_cost_benefit_prefers_older_of_equal_utilisation():
    pool, segs = build_pool([4, 4], seal_times=[0, 90])
    assert CostBenefitVictim().select(pool, now_seq=100) == segs[0]


def test_cost_benefit_trades_age_against_garbage():
    # Nearly-empty segment of moderate age beats an old but full one:
    # (1-u)·age/(1+u) = 0.875·20/1.125 ≈ 15.6 vs 0.125·100/1.875 ≈ 6.7.
    pool, segs = build_pool([1, 7], seal_times=[80, 0])
    assert CostBenefitVictim().select(pool, now_seq=100) == segs[0]


def test_dchoice_with_d_covering_all_equals_greedy():
    pool, segs = build_pool([6, 1, 4])
    assert DChoiceVictim(d=10, rng=1).select(pool, now_seq=10) == segs[1]


def test_dchoice_validates_d():
    with pytest.raises(ValueError):
        DChoiceVictim(d=0)


def test_windowed_greedy_limits_to_oldest():
    pool, segs = build_pool([5, 1], seal_times=[0, 50])
    # Window of 1: only the oldest sealed segment is eligible.
    assert WindowedGreedyVictim(window=1).select(pool, now_seq=60) == segs[0]


def test_windowed_greedy_escapes_unproductive_window():
    pool, segs = build_pool([8, 3], seal_times=[0, 50])
    assert WindowedGreedyVictim(window=1).select(pool, now_seq=60) == segs[1]


def test_windowed_greedy_window_slides_as_victims_leave():
    """Why Windowed Greedy has no ``rank``: cleaning a victim lets the
    next-oldest sealed segment into the FIFO window, so the second pick
    is a segment that no ranking of the first window contains."""
    pool, segs = build_pool([3, 2, 1], seal_times=[0, 10, 20])
    policy = WindowedGreedyVictim(window=2)
    assert policy.rank(pool, now_seq=30) is None
    first_window = sorted(segs[:2], key=lambda s: pool.valid_count[s])
    picks = []
    for _ in range(2):
        victim = policy.select(pool, now_seq=30)
        picks.append(victim)
        pool.invalidate_all(victim)
        pool.reclaim(victim)
    assert picks == [segs[1], segs[2]]
    assert picks[1] not in first_window


def test_random_greedy_stays_near_minimum():
    pool, segs = build_pool([1, 2, 7])
    pick = RandomGreedyVictim(slack=0.15, rng=3).select(pool, now_seq=10)
    assert pick in (segs[0], segs[1])


def test_registry():
    assert set(available_victim_policies()) >= {
        "greedy", "cost-benefit", "d-choice", "windowed-greedy",
        "random-greedy"}
    assert isinstance(make_victim_policy("greedy"), GreedyVictim)
    assert isinstance(make_victim_policy("d-choice", d=3), DChoiceVictim)
    with pytest.raises(ValueError):
        make_victim_policy("optimal")
