"""MIDAS-lite adaptive group-count extension."""

import numpy as np
import pytest

from repro.lss.store import LogStructuredStore
from repro.placement.midas import MidasLitePolicy
from repro.placement.registry import make_policy

from tests.conftest import make_write_trace


def reclaim(pol, group_id, valid_blocks):
    """GC reclaimed a victim of ``group_id`` that held ``valid_blocks``."""
    pol.segment_reclaimed(0, group_id, 0, valid_blocks, 0)


def test_registered(small_config):
    pol = make_policy("midas-lite", small_config)
    assert isinstance(pol, MidasLitePolicy)


def test_routing_follows_active_prefix(small_config):
    pol = MidasLitePolicy(small_config, min_groups=2)
    LogStructuredStore(small_config, pol)
    assert pol.place_user(1, 0) == 0
    assert pol.place_gc(1, 0, 0) == 1
    # Chain capped at active length (2): further migrations stay at 1.
    assert pol.place_gc(1, 1, 0) == 1
    pol.active_groups = 4
    assert pol.place_gc(1, 1, 0) == 2


def test_growth_on_high_tail_utilisation(small_config):
    pol = MidasLitePolicy(small_config, min_groups=2,
                          adapt_every_reclaims=4, ewma_alpha=1.0)
    LogStructuredStore(small_config, pol)
    seg = small_config.segment_blocks
    for _ in range(4):
        reclaim(pol, 1, int(0.9 * seg))
    assert pol.active_groups == 3
    assert pol.adaptations == [3]


def test_shrink_on_indistinguishable_tail(small_config):
    pol = MidasLitePolicy(small_config, min_groups=2,
                          adapt_every_reclaims=4, ewma_alpha=1.0)
    LogStructuredStore(small_config, pol)
    pol.active_groups = 4
    seg = small_config.segment_blocks
    reclaim(pol, 2, int(0.30 * seg))
    for _ in range(3):
        reclaim(pol, 3, int(0.31 * seg))
    assert pol.active_groups == 3


def test_no_adaptation_without_signal(small_config):
    pol = MidasLitePolicy(small_config, adapt_every_reclaims=2,
                          ewma_alpha=1.0)
    LogStructuredStore(small_config, pol)
    seg = small_config.segment_blocks
    # Low, well-separated utilisations: the configuration is fine as-is.
    reclaim(pol, 0, int(0.10 * seg))
    reclaim(pol, 1, int(0.40 * seg))
    assert pol.active_groups == 2
    assert pol.adaptations == []


def test_validation(small_config):
    with pytest.raises(ValueError):
        MidasLitePolicy(small_config, min_groups=1)
    with pytest.raises(ValueError):
        MidasLitePolicy(small_config, min_groups=5, max_groups=4)
    with pytest.raises(ValueError):
        MidasLitePolicy(small_config, ewma_alpha=0)


def test_end_to_end_replay_adapts(small_config):
    pol = MidasLitePolicy(small_config, adapt_every_reclaims=8)
    store = LogStructuredStore(small_config, pol)
    rng = np.random.default_rng(0)
    # Uniform churn over the whole volume drives victim utilisation high
    # (~logical/physical), which must push the chain deeper.
    lbas = rng.integers(0, 16_000, size=60_000)
    store.replay(make_write_trace(lbas, gap_us=5))
    store.check_invariants()
    assert store.stats.write_amplification() >= 1.0
    assert len(pol.adaptations) > 0          # the chain actually moved
    assert 2 <= pol.active_groups <= pol.max_groups
