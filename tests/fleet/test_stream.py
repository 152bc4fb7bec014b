"""Streaming trace ingestion: chunked generation, chunk walks, memory
bounds."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.trace.model import Trace
from repro.trace.stream import SyntheticVolumeStream


def stream_for(requests=1000, chunk=256, volume="ali-0000", seed=3):
    return SyntheticVolumeStream("ali", volume, 1024, requests,
                                 seed=seed, chunk_requests=chunk)


def collect(stream):
    """Materialize a stream by walking its chunk iterator."""
    parts = list(stream.chunks())
    return Trace.concat(parts, volume=stream.volume) if parts else \
        Trace.empty(stream.volume)


class TestSyntheticVolumeStream:
    def test_chunk_geometry(self):
        s = stream_for(requests=1000, chunk=256)
        assert s.num_chunks == 4
        sizes = [len(tr) for tr in s.chunks()]
        assert sizes == [256, 256, 256, 232]

    def test_deterministic_across_instances(self):
        a, b = collect(stream_for()), collect(stream_for())
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.ops, b.ops)
        assert np.array_equal(a.sizes, b.sizes)

    def test_seed_and_volume_change_the_stream(self):
        base = collect(stream_for())
        other_seed = collect(stream_for(seed=4))
        other_vol = collect(stream_for(volume="ali-0001"))
        assert not np.array_equal(base.offsets, other_seed.offsets)
        assert not np.array_equal(base.offsets, other_vol.offsets)

    def test_resume_mid_stream_is_identical(self):
        """``chunk(i, state)`` with the state chunk ``i - 1`` returned
        continues a walk: the chunks it gives are the walk's chunks."""
        s = stream_for(requests=1000, chunk=256)
        full = list(s.chunks())
        state = s.initial_state()
        for i, walked in enumerate(full):
            tr, state = s.chunk(i, state)
            assert np.array_equal(tr.timestamps, walked.timestamps)
            assert np.array_equal(tr.offsets, walked.offsets)
            assert np.array_equal(tr.sizes, walked.sizes)

    def test_timestamps_monotone_across_chunks(self):
        tr = collect(stream_for())
        assert np.all(np.diff(tr.timestamps) >= 0)
        tr.validate()

    def test_materialize_equals_chunk_walk(self):
        s = stream_for()
        a, b = s.materialize(), collect(s)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.timestamps, b.timestamps)

    def test_empty_stream(self):
        s = stream_for(requests=0)
        assert s.num_chunks == 0
        assert list(s.chunks()) == []
        assert len(s.materialize()) == 0

    def test_out_of_range_chunk(self):
        s = stream_for(requests=100, chunk=64)
        with pytest.raises(IndexError):
            s.chunk(2, s.initial_state())

    def test_stream_is_picklable(self):
        s = stream_for()
        clone = pickle.loads(pickle.dumps(s))
        assert np.array_equal(collect(clone).offsets,
                              collect(s).offsets)


def test_stream_generation_memory_is_o_chunk():
    """Walking a stream never materializes the whole volume: 4x the
    requests at the same chunk bound must not grow the peak."""
    import tracemalloc

    def peak(requests):
        s = SyntheticVolumeStream("ali", "mem-test", 2048, requests,
                                  seed=5, chunk_requests=256)
        tracemalloc.start()
        for _ in s.chunks():
            pass
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak_bytes

    small, large = peak(2_000), peak(8_000)
    assert large < small * 2, (small, large)


def test_streaming_replay_memory_is_o_chunk():
    """Peak traced memory of a chunked replay tracks the chunk size
    plus the store's configuration-bounded state, not the volume
    length.  The store's own structures (bloom cascade, slot metadata)
    fill up to their configured caps over the first few thousand
    requests, so the comparison points both sit past saturation: 4x
    the requests must cost well under 2x the peak."""
    import tracemalloc

    from repro.experiments.runner import store_config_for
    from repro.lss.store import LogStructuredStore
    from repro.placement.registry import make_policy

    def peak(requests):
        s = SyntheticVolumeStream("ali", "mem-test", 2048, requests,
                                  seed=5, chunk_requests=256)
        cfg = store_config_for(2048, seed=1)
        store = LogStructuredStore(cfg, make_policy("adapt", cfg))
        tracemalloc.start()
        for tr in s.chunks():
            store.replay(tr, finalize=False)
        store.finalize()
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak_bytes

    small, large = peak(8_000), peak(32_000)
    assert large < small * 2, (small, large)
