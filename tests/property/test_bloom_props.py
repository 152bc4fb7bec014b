"""Property suite for the bloom filter and the cascaded discriminator
(§3.4): no false negatives, bounded false positives, and bloom-mode scores
dominating exact-mode scores, and the ``holders`` count the demotion
pre-filter trusts."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter, CascadedDiscriminator
from repro.core.demotion import ProactiveDemotion

pytestmark = pytest.mark.property


@given(seed=st.integers(0, 2**16),
       capacity=st.integers(64, 1024))
@settings(max_examples=30, deadline=None)
def test_no_false_negatives(seed, capacity):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**62, size=capacity)
    bloom = BloomFilter(capacity, fp_rate=0.01)
    for key in keys:
        bloom.add(int(key))
    assert all(int(key) in bloom for key in keys)


@given(seed=st.integers(0, 2**16),
       fp_rate=st.sampled_from([0.01, 0.02, 0.05]))
@settings(max_examples=15, deadline=None)
def test_empirical_fp_rate_within_configured_bound(seed, fp_rate):
    """Fill to capacity, probe a disjoint key range; the empirical FP rate
    must stay near the configured bound (4x slack absorbs sampling noise
    and the rounding of bit/hash counts)."""
    capacity, probes = 2048, 4000
    rng = np.random.default_rng(seed)
    bloom = BloomFilter(capacity, fp_rate=fp_rate)
    for key in rng.permutation(capacity):
        bloom.add(int(key))
    # Probe keys from a range guaranteed disjoint from the inserts.
    fp = sum(1 for key in range(10**9, 10**9 + probes) if key in bloom)
    assert fp / probes <= fp_rate * 4


@given(seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_bloom_mode_score_dominates_exact_mode(seed):
    """False positives can only inflate a score, never deflate it, and the
    exact mode *is* the truth — so bloom >= exact, always, and both stay
    within [0, num_filters]."""
    rng = np.random.default_rng(seed)
    exact = CascadedDiscriminator(num_filters=3, capacity=128)
    bloom = CascadedDiscriminator(num_filters=3, capacity=128,
                                  use_bloom=True)
    inserts = rng.integers(0, 500, size=600)
    for key in inserts:
        exact.insert(int(key))
        bloom.insert(int(key))
    assert exact.evictions == bloom.evictions
    for key in range(700):
        es, bs = exact.score(key), bloom.score(key)
        assert 0 <= es <= 3 and 0 <= bs <= 3
        assert bs >= es


def _live_members(*cascades: CascadedDiscriminator) -> dict[int, int]:
    """Key -> live member sets holding it, counted from the sets."""
    return dict(Counter(key for d in cascades for m in d._members
                        for key in m))


@given(seed=st.integers(0, 2**16),
       num_groups=st.integers(1, 4),
       num_filters=st.integers(1, 4),
       capacity=st.integers(1, 12),
       threshold=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_shared_holders_count_live_members_and_prefilter_is_exact(
        seed, num_groups, num_filters, capacity, threshold):
    """Random ``insert_many`` runs into cascades sharing one ``holders``
    dict, evicting as they fill: after every run ``holders`` equals a
    count of the live member sets, a cascade with its own dict keeps the
    same invariant, and ``demotion_target`` answers what scoring every
    group without the pre-filter answers."""
    rng = np.random.default_rng(seed)
    gids = list(range(1, num_groups + 1))
    demotion = ProactiveDemotion(gids, threshold, num_filters, capacity)
    cascades = demotion.discriminators
    solo = CascadedDiscriminator(num_filters, capacity)
    probes = range(40)
    expected_demotions = 0
    for run in range(12):
        keys = rng.integers(0, 32, size=rng.integers(0, 3 * capacity + 1))
        cascades[gids[run % num_groups]].insert_many(keys.tolist())
        solo.insert_many(keys.tolist())
        assert demotion.holders == _live_members(*cascades.values())
        assert solo._holders == _live_members(solo)
        for lba in probes:
            best_gid, best_score = None, 0
            for gid in gids:
                score = cascades[gid].score(lba)
                if score > best_score:
                    best_gid, best_score = gid, score
            want = None
            if best_gid is not None and best_score >= threshold:
                want = (best_gid, best_score)
                expected_demotions += 1
            assert demotion.demotion_target(lba) == want
    assert demotion.lookups == 12 * len(probes)
    assert demotion.demotions == expected_demotions
