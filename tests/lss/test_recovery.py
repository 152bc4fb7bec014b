"""Crash-recovery scan: rebuilt state must equal live state."""

import numpy as np
import pytest

from repro.lss.recovery import recover_store, scan_pool, verify_recovery
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy

from tests.conftest import make_write_trace


def churned_store(cfg, scheme="sepgc", n=12_000, unique=2048, seed=0,
                  gaps=(5,)):
    rng = np.random.default_rng(seed)
    store = LogStructuredStore(cfg, make_policy(scheme, cfg))
    lbas = rng.integers(0, unique, size=n)
    gap = int(rng.choice(gaps))
    store.replay(make_write_trace(lbas, gap_us=gap), finalize=False)
    return store


def test_recovery_matches_live_state_after_gc(tiny_config):
    store = churned_store(tiny_config)
    assert store.stats.gc_segments_reclaimed > 0  # GC actually ran
    result = verify_recovery(store)
    assert result.live_blocks == \
        int(np.count_nonzero(store.mapping != -1))


@pytest.mark.parametrize("scheme", ["sepgc", "mida", "sepbit", "adapt"])
def test_recovery_across_policies(tiny_config, scheme):
    store = churned_store(tiny_config, scheme=scheme, n=8000)
    verify_recovery(store)


def test_recover_store_installs_rebuilt_state(tiny_config):
    store = churned_store(tiny_config)
    expected_mapping = store.mapping.copy()
    # Crash: wipe the volatile tables.
    store.mapping[:] = -1
    store.pool.slot_valid[:] = False
    store.pool.valid_count[:] = 0
    result = recover_store(store)
    assert np.array_equal(store.mapping, expected_mapping)
    store.check_invariants()
    assert result.segments_scanned > 0


def test_recovery_empty_store(tiny_config):
    store = LogStructuredStore(tiny_config, make_policy("sepgc",
                                                        tiny_config))
    result = scan_pool(store.pool, tiny_config.logical_blocks)
    assert result.live_blocks == 0
    assert result.segments_scanned == 0


def test_recovery_ignores_padding_slots(tiny_config):
    store = LogStructuredStore(tiny_config, make_policy("sepgc",
                                                        tiny_config))
    # One sparse write: chunk padded on finalize.
    store.process_request(0, 1, 7, 1)
    store.finalize()
    assert store.stats.padding_blocks_written > 0
    result = verify_recovery(store)
    assert result.live_blocks == 1


def test_recovery_newest_copy_wins(tiny_config):
    store = LogStructuredStore(tiny_config, make_policy("sepgc",
                                                        tiny_config))
    for t in range(5):
        store.process_request(t * 10, 1, 3, 1)  # rewrite same LBA
    result = scan_pool(store.pool, tiny_config.logical_blocks)
    assert result.live_blocks == 1
    assert result.mapping[3] == store.mapping[3]


def test_tampered_store_fails_recovery_crosscheck(tiny_config):
    """A store whose mapping disagrees with the segment pool's slot
    metadata fails the scan: two mapped LBAs swap locations."""
    store = churned_store(tiny_config)
    a, b = np.flatnonzero(store.mapping >= 0)[:2]
    store.mapping[a], store.mapping[b] = \
        int(store.mapping[b]), int(store.mapping[a])
    with pytest.raises(AssertionError, match="mapping diverges at 2 LBAs"):
        verify_recovery(store)
