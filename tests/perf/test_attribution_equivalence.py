"""Attribution is an observer: it never perturbs the replay it records.

The snapshot's ``ledger`` and ``gc_provenance`` sections describe the
simulated store (``tests/lss/test_replay_loop.py`` holds them equal
under the replay loop and its per-block specification); here the
recorder must leave the replay's final state alone, and its provenance
plane must carry every block's birth epoch across GC migrations.
"""

from __future__ import annotations

import pytest

from repro.obs.attribution import AttributionRecorder
from repro.validate.differential import default_workloads

from tests.perf.test_engine_equivalence import (assert_states_equal,
                                                fresh_store)


def _replay_with_attribution(policy_name: str, trace):
    attr = AttributionRecorder()
    store = fresh_store(policy_name, attribution=attr)
    store.replay(trace)
    return store, attr


@pytest.mark.parametrize("policy_name", ("sepgc", "adapt"))
def test_attribution_does_not_change_replay(policy_name):
    """Attaching the recorder must not perturb the replay."""
    trace = default_workloads(num_requests=600)[0]
    bare = fresh_store(policy_name)
    bare.replay(trace)
    instrumented, _ = _replay_with_attribution(policy_name, trace)
    assert_states_equal(bare, instrumented)


def test_provenance_epochs_survive_migration():
    """Valid blocks keep their birth epoch across GC migrations: every
    tagged live slot's epoch is a real user_seq issued before now."""
    import numpy as np
    from repro.obs.attribution import ORIGIN_NONE
    trace = default_workloads(num_requests=800)[0]
    store, attr = _replay_with_attribution("adapt", trace)
    pool = store.pool
    tagged = attr.slot_origin != ORIGIN_NONE
    assert tagged.any()
    epochs = attr.slot_epoch[tagged]
    # Birth epochs are pre-increment user_seq values: [0, user_seq).
    assert int(epochs.min()) >= 0
    assert int(epochs.max()) < store.user_seq
    # Epochs of currently-valid slots are unique (one live copy per
    # logical write).
    valid = pool.slot_valid.reshape(-1) & tagged
    live = attr.slot_epoch[valid]
    assert live.size == np.unique(live).size
