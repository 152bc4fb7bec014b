"""The settings of the three config dataclasses, by name.

A setting earns its field only if some caller sets it to something other
than its default; a value nobody sets is a named module constant instead
(``repro.core.policy.NUM_GHOST_SETS``, ``repro.prototype.engine.IODEPTH``,
...).  This test lists every field, so adding or removing a setting is a
visible edit here, the way ``test_frozen_bench_pins.py`` lists the
stubs the frozen ``bench/`` harness still names.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import AdaptConfig
from repro.lss.config import LSSConfig
from repro.prototype.engine import PrototypeConfig

FIELDS = {
    LSSConfig: ("logical_blocks", "segment_blocks", "chunk",
                "over_provisioning", "coalesce_window_us", "gc_free_low",
                "gc_free_high", "victim_policy", "seed"),
    AdaptConfig: ("sample_rate", "adapt_every_fraction", "num_gc_groups",
                  "bloom_filters", "bloom_capacity",
                  "enable_threshold_adaptation", "enable_aggregation",
                  "enable_demotion"),
    PrototypeConfig: ("unique_blocks", "num_writes"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
