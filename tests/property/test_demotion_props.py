"""Property suite for the cascaded RA discriminator and proactive demotion
(§3.4): scores follow a naive FIFO cascade, and the shared ``holders``
count the demotion pre-filter trusts equals the live members."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demotion import CascadedDiscriminator, ProactiveDemotion

pytestmark = pytest.mark.property


@given(st.lists(st.lists(st.integers(0, 100), max_size=40), max_size=12),
       st.integers(1, 4), st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_cascade_matches_naive_fifo_model(batches, num_filters, capacity):
    """Insert runs of any length; each key's score is the number of the
    last ``num_filters`` capacity-sized slices of the insert stream that
    hold it, and every slice past those was evicted."""
    d = CascadedDiscriminator(num_filters, capacity)
    stream: list[int] = []
    for keys in batches:
        d.insert_many(keys)
        stream.extend(keys)
    slices = [stream[i:i + capacity]
              for i in range(0, len(stream), capacity)] or [[]]
    live = slices[-num_filters:]
    assert d.evictions == len(slices) - len(live)
    for key in range(102):
        assert d.score(key) == sum(key in s for s in live)


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
