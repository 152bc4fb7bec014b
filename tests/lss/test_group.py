"""Group behaviour: sealing, shadow appends, accounting."""

import pytest

from repro.lss.group import APPEND_SHADOW, APPEND_USER
from repro.lss.store import LogStructuredStore
from repro.placement.sepgc import SepGCPolicy

from tests.conftest import FlushLog


@pytest.fixture
def store(tiny_config):
    return LogStructuredStore(tiny_config, SepGCPolicy(tiny_config))


def test_group_seals_when_segment_full(store, tiny_config):
    g = store.groups[0]
    for i in range(tiny_config.segment_blocks):
        g.append_user(i, now_us=i)
    # Segment filled by FULL chunk flushes and was sealed.
    assert g.open_seg is None
    assert len(store.pool.sealed_segments()) == 1


def test_padding_advances_fill_to_chunk_boundary(store, tiny_config):
    g = store.groups[0]
    g.append_user(0, now_us=0)
    flush = g.poll_deadline(now_us=10_000)
    assert flush is not None
    chunk = tiny_config.chunk.chunk_blocks
    assert store.pool.fill[g.open_seg] == chunk


def test_shadow_append_creates_dead_slot(store):
    g = store.groups[0]
    g.append_shadow(lba=7, now_us=0)
    seg = g.open_seg
    assert store.pool.fill[seg] == 1
    assert store.pool.valid_count[seg] == 0
    assert g.segment_shadow_bytes == 4096
    assert g.buffer.pending_tokens == ((APPEND_SHADOW, 7),)


def test_shadow_accounted_on_flush(store, tiny_config):
    g = store.groups[0]
    for i in range(tiny_config.chunk.chunk_blocks):
        g.append_shadow(i, now_us=0)
    assert g.traffic.shadow_blocks == tiny_config.chunk.chunk_blocks
    assert g.traffic.chunk_flushes == 1


def test_shadow_watermark_and_unshadowed(store):
    g = store.groups[0]
    g.append_user(1, 0)
    g.append_user(2, 0)
    assert len(g.unshadowed_pending) == 2
    g.mark_all_shadowed(now_us=5)
    assert g.unshadowed_pending == ()
    g.append_user(3, 6)
    assert g.unshadowed_pending == ((APPEND_USER, 3),)


def test_partial_shadow_watermark(store):
    g = store.groups[0]
    for lba in (1, 2, 3):
        g.append_user(lba, 0)
    g.mark_partially_shadowed(2, now_us=5)
    assert g.unshadowed_pending == ((APPEND_USER, 3),)
    before = g.buffer.deadline_us
    g.mark_partially_shadowed(1, now_us=50)
    assert g.unshadowed_pending == ()
    assert g.buffer.deadline_us == 150  # timer restarted at full coverage
    assert before != g.buffer.deadline_us


def test_watermark_resets_on_flush(store, tiny_config):
    g = store.groups[0]
    g.append_user(1, 0)
    g.mark_all_shadowed(0)
    for i in range(1, tiny_config.chunk.chunk_blocks):
        g.append_user(10 + i, 0)
    # Chunk flushed FULL; watermark must reset for the next chunk.
    assert g.buffer.pending_blocks == 0
    g.append_user(99, 1)
    assert len(g.unshadowed_pending) == 1


def test_deadline_flush_counters(store):
    g = store.groups[0]
    g.append_user(1, 0)
    g.poll_deadline(now_us=10_000)
    assert g.traffic.deadline_flushes == 1
    g.append_user(2, 20_000)
    g.force_flush(now_us=20_001)
    assert g.traffic.forced_flushes == 1


#: Blocks per request in the run tests: a run's blocks share a timestamp.
_REQUEST_BLOCKS = 5


def _reserve_in_runs(tiny_config, cuts):
    """Reserve blocks 100, 101, ... in runs as the replay loop forms
    them — a block with no open segment alone, else up to the block
    filling the open chunk or the request's end — cut further at every
    position in ``cuts``.  Returns the store, its user group, each
    block's location and each flush record."""
    store = LogStructuredStore(tiny_config, SepGCPolicy(tiny_config))
    flushes = FlushLog(store).flushes
    g = store.groups[0]
    n = tiny_config.segment_blocks + 3
    locs, run = [], []
    for i in range(n):
        run.append(100 + i)
        if g.open_seg is None or len(run) == g.buffer.free_slots \
                or i + 1 in cuts or (i + 1) % _REQUEST_BLOCKS == 0 \
                or i + 1 == n:
            locs.extend(g.reserve_user(run, now_us=i // _REQUEST_BLOCKS))
            run = []
        store.user_seq += 1
    return store, g, locs, flushes


def test_reserve_user_is_append_user_minus_the_slot_content(tiny_config):
    """reserve_user moves the fill pointer, queues, flushes and seals
    like append_user — per block, and for runs that end where a chunk
    fills; only the slot planes wait for fill_slots."""
    # Runs of one, runs cut only by chunk fills, and extra cuts inside.
    for cuts in (range(1, 200), (), (3, 5, 21, 22)):
        _check_runs_against_append_user(tiny_config, cuts)


def _check_runs_against_append_user(tiny_config, cuts):
    import numpy as np

    eager = LogStructuredStore(tiny_config, SepGCPolicy(tiny_config))
    eager_flushes = FlushLog(eager).flushes
    ge = eager.groups[0]
    eager_locs = []
    for i in range(tiny_config.segment_blocks + 3):
        eager_locs.append(ge.append_user(100 + i,
                                         now_us=i // _REQUEST_BLOCKS))
        eager.user_seq += 1
    lazy, gl, lazy_locs, lazy_flushes = _reserve_in_runs(tiny_config, cuts)
    assert lazy_locs == eager_locs
    assert lazy_flushes == eager_flushes
    assert gl.traffic == ge.traffic
    assert gl.buffer.pending_tokens == ge.buffer.pending_tokens
    assert gl.buffer.deadline_us == ge.buffer.deadline_us
    assert gl.open_seg == ge.open_seg
    for plane in ("fill", "state", "sealed_seq", "created_seq"):
        assert np.array_equal(getattr(lazy.pool, plane),
                              getattr(eager.pool, plane))
    assert not lazy.pool.slot_valid.any()
    lazy.pool.fill_slots(np.array(lazy_locs),
                         100 + np.arange(len(lazy_locs)))
    assert np.array_equal(lazy.pool.slot_lba, eager.pool.slot_lba)
    assert np.array_equal(lazy.pool.valid_count, eager.pool.valid_count)
