"""Trace statistics (Fig 2 machinery)."""

import numpy as np

from repro.common.units import KiB, MICROS_PER_SEC
from repro.trace.model import Trace
from repro.trace.stats import (
    cdf_at,
    compute_stats,
    write_size_distribution,
)

from tests.conftest import make_write_trace


def test_compute_stats_basic():
    tr = make_write_trace(range(11), gap_us=MICROS_PER_SEC // 10)
    s = compute_stats(tr)
    assert s.num_requests == 11
    assert s.num_writes == 11
    assert abs(s.avg_request_rate - 11.0) < 1.5  # ~10 req/s over 1 s span
    assert s.footprint_blocks == 11


def test_write_size_fractions():
    rows = [(i, 1, 0, sz) for i, sz in enumerate([1, 1, 2, 4, 16])]
    s = compute_stats(Trace.from_rows(rows))
    assert s.write_size_fraction_le(8 * KiB) == 0.6   # sizes 1,1,2 blocks
    assert abs(s.write_size_fraction_gt(32 * KiB) - 0.2) < 1e-9  # the 16


def test_cdf_at_points():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    out = cdf_at(vals, np.array([0.0, 2.0, 10.0]))
    assert list(out) == [0.0, 0.5, 1.0]


def test_fleet_level_summaries():
    traces = [make_write_trace(range(5), gap_us=100),
              make_write_trace(range(50), gap_us=100)]
    stats = [compute_stats(t) for t in traces]
    dist = write_size_distribution(stats)
    assert dist["le_8KiB"] == 1.0
    assert dist["gt_32KiB"] == 0.0


def test_empty_inputs():
    assert write_size_distribution([]) == {
        "le_8KiB": 0.0, "le_32KiB": 0.0, "gt_32KiB": 0.0}
    assert list(cdf_at(np.array([]), np.array([1.0, 2.0]))) == [0.0, 0.0]
