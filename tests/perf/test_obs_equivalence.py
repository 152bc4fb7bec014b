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

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.obs.recorder import ObsRecorder
from repro.validate.differential import default_workloads

from tests.conftest import spilled_events
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


def test_flush_record_of_count_n_equals_n_records_of_one(tmp_path):
    """The flush-record contract every consumer relies on: one record
    with ``count = n`` books what n single-flush records book — in
    ADAPT's write monitor, the RAID layer and the event stream, lazy
    append after the first chunk.  The recorder's registry is read from
    the store's own counts, so its half of the contract is the store's:
    an append run that fills n chunks books, in :class:`StoreStats` and
    hence in the registry and the event counts, what n runs that fill
    one chunk each book."""
    from repro.array.coalescing import ChunkFlush, FlushReason

    n, time_us = 5, 700
    cb = fresh_store("adapt").config.chunk.chunk_blocks
    run = ChunkFlush(FlushReason.FULL, n, user_blocks=n * cb - 3,
                     gc_blocks=0, shadow_blocks=3, padding_blocks=0,
                     time_us=time_us, lazy_blocks=2)
    first = ChunkFlush(FlushReason.FULL, 1, cb - 3, 0, 3, 0, time_us,
                       lazy_blocks=2)
    rest = ChunkFlush(FlushReason.FULL, 1, cb, 0, 0, 0, time_us)

    def book(flushes, spill_path):
        rec = ObsRecorder(spill_path=str(spill_path))
        store = fresh_store("adapt", recorder=rec)
        hot = store.groups[store.policy.HOT]
        for flush in flushes:
            store.on_chunk_flush(hot, flush)
        monitor = store.policy.aggregator.monitor_for(hot.gid)
        return (dataclasses.asdict(monitor),
                dataclasses.asdict(store.stats.raid),
                spilled_events(rec.tracer))

    assert book([run], tmp_path / "run.jsonl") \
        == book([first] + [rest] * (n - 1), tmp_path / "single.jsonl")
    monitor, raid, events = book([run], tmp_path / "again.jsonl")
    assert monitor["full_flushes"] == n and monitor["shadow_blocks"] == 3
    assert raid["data_chunks"] == n
    assert [e["type"] for e in events] == \
        ["chunk_flush", "lazy_append"] + ["chunk_flush"] * (n - 1)

    def counted(runs):
        """A GC group whose first 3 pending blocks were shadowed, then
        appended in ``runs``; the store's stats and the registry."""
        rec = ObsRecorder()
        store = fresh_store("adapt", recorder=rec)
        g = store.groups[store.policy.GC_BASE]
        lbas = np.arange(3 + sum(runs), dtype=np.int64)
        g.append_gc_run(store, lbas[:3], time_us)
        g.mark_all_shadowed(time_us)
        done = 3
        for k in runs:
            g.append_gc_run(store, lbas[done:done + k], time_us)
            done += k
        return dataclasses.asdict(store.stats), rec.snapshot()

    k = 3  # chunks one segment holds after the shadowed backlog
    stats, snap = counted([k * cb - 3])
    assert (stats, snap) == counted([cb - 3] + [cb] * (k - 1))
    assert stats["lazy_appends"] == 1 and stats["lazy_blocks"] == 3
    assert snap["counters"]["lss_chunk_flushes_full_total"] == k
    assert snap["counters"]["lss_lazy_append_blocks_total"] == 3
    assert snap["counters"]["lss_flushed_data_blocks_total"] == k * cb
    assert snap["histograms"]["lss_chunk_fill_blocks"]["count"] == k
    assert snap["events"] == {"chunk_flush": k, "lazy_append": 1}


#: policy -> (events, sha256 of the event list, sha256 of the recorder
#: snapshot) for a replay of the 1200-request tencent differential
#: workload.  Captured with the per-block GC loop
#: that ``validate/oracle.py`` still specifies: migrating a victim in
#: runs must not reorder, merge or drop a single traced event.  The
#: snapshot hashes are those of the same snapshots without the
#: ``events_dropped`` key, which tracers no longer have.
_EVENT_GOLDEN = {
    "adapt": (
        3802,
        "62ac90fe33cfbda8c72bed7e89b15f52f4aa175798dd1bd4e08be36744f44ca3",
        "180d00c37fb85c7973f900b5a95e56417c86949f269da3d24e53977293c442bf"),
    "sepgc": (
        3600,
        "a49b184bbb165180f1f63147fb998140b28c49680fdd0f67b610045372386ea0",
        "c45ee8796690cfb09c9dea9f2201dab992b1bb625a216499665324573acb9268"),
    "dac": (
        4577,
        "7decdb7b059e43d67507e5cfb0b33ef8afcae77f96e0e4a982f7f815a97297a4",
        "e9d23a4b3af68a4ce883fba976f56f7a5a96999af94dfc9788342fa4d2338c48"),
}


@pytest.mark.parametrize("policy_name", sorted(_EVENT_GOLDEN))
def test_traced_event_stream_pinned(policy_name, tmp_path):
    trace = default_workloads(num_requests=1200)[1]
    rec = ObsRecorder(256, spill_path=str(tmp_path / "events.jsonl"))
    store = fresh_store(policy_name, recorder=rec)
    store.replay(trace)
    snapshot = json.dumps(rec.snapshot(), sort_keys=True)
    spilled = spilled_events(rec.tracer)
    events = json.dumps(spilled, sort_keys=True)
    count, events_sha, snapshot_sha = _EVENT_GOLDEN[policy_name]
    assert len(spilled) == count
    assert hashlib.sha256(events.encode()).hexdigest() == events_sha
    assert hashlib.sha256(snapshot.encode()).hexdigest() == snapshot_sha
