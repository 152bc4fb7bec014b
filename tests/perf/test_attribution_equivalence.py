"""Attribution equivalence: the invariant view is byte-identical.

The attribution contract splits the snapshot in two: ``chunk_bounds``
describes the batched engine's chunk construction (meaningless under
the scalar loop), while ``ledger`` and ``gc_provenance`` describe the
simulated store — which the equivalence contract already forces to be
bit-identical.  :func:`invariant_view` must therefore serialize to
*identical JSON bytes* under the batched engine (single-group policies;
``auto`` for the others) and under the replay loop, for every policy,
and attaching the recorder must never perturb the replay itself.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.attribution import AttributionRecorder, invariant_view
from repro.placement.registry import available_policies
from repro.validate.differential import default_workloads

from tests.perf.test_engine_equivalence import (assert_states_equal,
                                                engine_under_test,
                                                fresh_store)

#: ali (index 0) and tencent (index 1) differential workloads.
_WORKLOADS = ("ali", "tencent")


def _replay_with_attribution(policy_name: str, trace, engine: str):
    attr = AttributionRecorder()
    store = fresh_store(policy_name, attribution=attr)
    store.replay(trace, engine=engine)
    return store, attr


def _canonical(attr: AttributionRecorder) -> str:
    return json.dumps(invariant_view(attr.snapshot()), sort_keys=True)


@pytest.mark.parametrize("workload_idx", range(len(_WORKLOADS)),
                         ids=_WORKLOADS)
@pytest.mark.parametrize("policy_name", available_policies())
def test_invariant_view_byte_identical_across_engines(policy_name,
                                                      workload_idx):
    trace = default_workloads(num_requests=600)[workload_idx]
    ref_store, ref_attr = _replay_with_attribution(
        policy_name, trace, "scalar")
    store, attr = _replay_with_attribution(
        policy_name, trace, engine_under_test(policy_name))
    assert_states_equal(ref_store, store)
    assert _canonical(ref_attr) == _canonical(attr)


@pytest.mark.parametrize("policy_name", ("sepgc", "adapt"))
def test_attribution_does_not_change_replay(policy_name):
    """Attaching the recorder must not perturb the replay."""
    trace = default_workloads(num_requests=600)[0]
    engine = engine_under_test(policy_name)
    bare = fresh_store(policy_name)
    bare.replay(trace, engine=engine)
    instrumented, _ = _replay_with_attribution(policy_name, trace, engine)
    assert bare.replay_engine == instrumented.replay_engine
    assert_states_equal(bare, instrumented)


def test_chunk_bounds_exist_only_under_batched():
    trace = default_workloads(num_requests=600)[0]
    _, scalar_attr = _replay_with_attribution("sepgc", trace, "scalar")
    _, batched_attr = _replay_with_attribution("sepgc", trace, "batched")
    _, adapt_attr = _replay_with_attribution("adapt", trace, "auto")
    assert scalar_attr.snapshot()["chunk_bounds"]["chunks"] == 0
    assert adapt_attr.snapshot()["chunk_bounds"]["chunks"] == 0
    batched = batched_attr.snapshot()["chunk_bounds"]
    assert batched["chunks"] > 0
    assert batched["chunks"] == sum(
        c["chunks"] for c in batched["causes"].values())
    assert batched["chunks"] == sum(
        batched["chunk_requests_hist"].values())


def test_provenance_epochs_survive_migration():
    """Valid blocks keep their birth epoch across GC migrations: every
    tagged live slot's epoch is a real user_seq issued before now."""
    import numpy as np
    from repro.lss.segment import ORIGIN_NONE
    trace = default_workloads(num_requests=800)[0]
    store, _ = _replay_with_attribution("adapt", trace, "auto")
    pool = store.pool
    tagged = pool.slot_origin_flat != ORIGIN_NONE
    assert tagged.any()
    epochs = pool.slot_epoch_flat[tagged]
    # Birth epochs are pre-increment user_seq values: [0, user_seq).
    assert int(epochs.min()) >= 0
    assert int(epochs.max()) < store.user_seq
    # Epochs of currently-valid slots are unique (one live copy per
    # logical write).
    valid = pool.slot_valid.reshape(-1) & tagged
    live = pool.slot_epoch_flat[valid]
    assert live.size == np.unique(live).size
