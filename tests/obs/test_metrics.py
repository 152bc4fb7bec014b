"""Metric primitives and registry semantics."""

import pytest

from repro.common.errors import ConfigError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_increments():
    c = Counter("x_total")
    c.inc()
    c.inc(5)
    assert c.value == 6


def test_counter_rejects_decrease():
    c = Counter("x_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_sets():
    g = Gauge("g")
    g.set(3.5)
    g.set(1.0)
    assert g.value == 1.0


def test_histogram_le_semantics():
    h = Histogram("h", buckets=[1, 4, 16])
    for v in (0, 1, 2, 4, 5, 100):
        h.observe(v)
    # counts per bucket: <=1 -> {0,1}, <=4 -> {2,4}, <=16 -> {5}, +Inf -> {100}
    assert list(h.counts) == [2, 2, 1, 1]
    assert list(h.cumulative()) == [2, 4, 5, 6]
    assert h.count == 6
    assert h.sum == 112


def test_histogram_needs_buckets():
    with pytest.raises(ConfigError):
        Histogram("h", buckets=[])
    # All-infinite bucket lists fold to nothing finite.
    with pytest.raises(ConfigError):
        Histogram("h", buckets=[float("inf")])


def test_histogram_folds_nonfinite_edges():
    h = Histogram("h", buckets=[1, float("inf"), 4, float("nan")])
    assert list(h.edges) == [1.0, 4.0]
    h.observe(100)
    assert list(h.counts) == [0, 0, 1]  # overflow bucket catches it


def test_observe_bulk_equals_repeated_observe():
    a = Histogram("a", buckets=[1, 4, 16])
    b = Histogram("b", buckets=[1, 4, 16])
    for value, count in ((0, 3), (4, 2), (100, 5), (16, 1)):
        for _ in range(count):
            a.observe(value)
        b.observe_bulk(value, count)
    assert list(a.counts) == list(b.counts)
    assert a.sum == b.sum
    b.observe_bulk(7, 0)  # zero-count is a no-op
    assert a.count == b.count
    with pytest.raises(ValueError):
        b.observe_bulk(7, -1)


def test_registry_get_or_create():
    reg = MetricsRegistry()
    a = reg.counter("c_total")
    b = reg.counter("c_total")
    assert a is b
    assert len(reg) == 1


def test_registry_kind_clash_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(ConfigError):
        reg.gauge("m")


def test_registry_snapshot_is_plain_data():
    import pickle

    reg = MetricsRegistry()
    reg.counter("c_total").inc(3)
    reg.gauge("g").set(0.5)
    reg.histogram("h", buckets=[1, 2]).observe(1.5)
    snap = reg.snapshot()
    assert snap["counters"] == {"c_total": 3}
    assert snap["gauges"] == {"g": 0.5}
    assert snap["histograms"]["h"]["count"] == 1
    pickle.loads(pickle.dumps(snap))  # must survive process boundaries
