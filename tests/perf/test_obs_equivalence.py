"""Obs-on equivalence: run-shaped flush records vs one record per flush.

An :class:`ObsRecorder` hears of chunk flushes through one hook whose
record carries a ``count``: a GC migration run reports ``count >= 1``
FULL flushes at once, user appends report them one by one.  Both must
leave the *entire* metrics registry — every counter, gauge, and
histogram (bucket counts and float sums) — bit-identical to
single-flush records, and attaching the recorder must not perturb the
replay.  The recorder expands a run of FULL flushes into one
``chunk_flush`` event per chunk — that stream is pinned by golden hashes
below.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs.recorder import ObsRecorder
from repro.validate.differential import default_workloads

from tests.perf.test_engine_equivalence import (assert_states_equal,
                                                fresh_store)


@pytest.mark.parametrize("policy_name", ("sepgc", "adapt"))
def test_recorder_does_not_change_batched_results(policy_name):
    """Attaching a recorder (user writes reported in settle-sized
    batches, settles added at its sample points) must not perturb the
    replay itself."""
    trace = default_workloads(num_requests=600)[0]
    bare = fresh_store(policy_name)
    bare.replay(trace)
    instrumented = fresh_store(policy_name, recorder=ObsRecorder())
    instrumented.replay(trace)
    assert_states_equal(bare, instrumented)


def test_flush_record_of_count_n_equals_n_records_of_one():
    """The flush-record contract every consumer relies on: one record
    with ``count = n`` books what n single-flush records book — in the
    metrics registry, ADAPT's write monitor, the RAID layer and the
    event stream, lazy append after the first chunk."""
    from repro.array.coalescing import ChunkFlush, FlushReason

    n, time_us = 5, 700
    cb = fresh_store("adapt").config.chunk.chunk_blocks
    run = ChunkFlush(FlushReason.FULL, n, user_blocks=n * cb - 3,
                     gc_blocks=0, shadow_blocks=3, padding_blocks=0,
                     time_us=time_us, lazy_blocks=2)
    first = ChunkFlush(FlushReason.FULL, 1, cb - 3, 0, 3, 0, time_us,
                       lazy_blocks=2)
    rest = ChunkFlush(FlushReason.FULL, 1, cb, 0, 0, 0, time_us)

    def book(flushes):
        rec = ObsRecorder()
        store = fresh_store("adapt", recorder=rec)
        hot = store.groups[store.policy.HOT]
        for flush in flushes:
            store.on_chunk_flush(hot, flush)
        monitor = store.policy.aggregator.monitor_for(hot.gid)
        events = [e.to_json_dict() for e in rec.tracer.events]
        return (rec.registry.snapshot(), vars(monitor),
                vars(store.stats.raid), events)

    assert book([run]) == book([first] + [rest] * (n - 1))
    snapshot, monitor, raid, _ = book([run])
    assert snapshot["counters"]["lss_chunk_flushes_full_total"] == n
    assert snapshot["counters"]["lss_lazy_append_blocks_total"] == 2
    assert monitor["full_flushes"] == n and monitor["shadow_blocks"] == 3
    assert raid["data_chunks"] == n


#: policy -> (events, sha256 of the event list, sha256 of the recorder
#: snapshot) for a replay of the 1200-request tencent differential
#: workload.  Captured with the per-block GC loop
#: that ``validate/oracle.py`` still specifies: migrating a victim in
#: runs must not reorder, merge or drop a single traced event.
_EVENT_GOLDEN = {
    "adapt": (
        3802,
        "62ac90fe33cfbda8c72bed7e89b15f52f4aa175798dd1bd4e08be36744f44ca3",
        "d697b383c7ca5276c6939825f83ce242e1ee7ba17f847c73247af6ac5e8ed5d7"),
    "sepgc": (
        3600,
        "a49b184bbb165180f1f63147fb998140b28c49680fdd0f67b610045372386ea0",
        "f463f2a5c1f10f2e2869c75d98e69b2ab11363d1ec294c6ffb79f1ad8e3d6f98"),
    "dac": (
        4577,
        "7decdb7b059e43d67507e5cfb0b33ef8afcae77f96e0e4a982f7f815a97297a4",
        "d7f75c1fb6b9e0ca9e895f680b87fbc8efcb561580b5ff08a393393913cd1636"),
}


@pytest.mark.parametrize("policy_name", sorted(_EVENT_GOLDEN))
def test_traced_event_stream_pinned(policy_name):
    trace = default_workloads(num_requests=1200)[1]
    rec = ObsRecorder(256)
    store = fresh_store(policy_name, recorder=rec)
    store.replay(trace)
    assert rec.tracer.dropped == 0
    events = json.dumps([e.to_json_dict() for e in rec.tracer.events],
                        sort_keys=True)
    snapshot = json.dumps(rec.snapshot(), sort_keys=True)
    count, events_sha, snapshot_sha = _EVENT_GOLDEN[policy_name]
    assert len(rec.tracer.events) == count
    assert hashlib.sha256(events.encode()).hexdigest() == events_sha
    assert hashlib.sha256(snapshot.encode()).hexdigest() == snapshot_sha
