"""Exporter formats: JSONL events, timeline CSV, Prometheus text."""

import csv
import json
import re

import pytest

from repro.common.errors import ConfigError
from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.obs.events import EventTracer
from repro.obs.exporters import (
    prometheus_text,
    write_events_jsonl,
    write_prometheus,
    write_timeline_csv,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ObsRecorder
from repro.placement.registry import make_policy
from repro.trace.synthetic.ycsb import DensityPreset, generate_ycsb_a

#: One Prometheus text-format sample line:
#: ``name{labels} value`` with optional labels.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="
    r'"[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r"[-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf|NaN)$")


@pytest.fixture(scope="module")
def recorder(tmp_path_factory):
    cfg = LSSConfig(logical_blocks=4096, segment_blocks=64)
    spill = tmp_path_factory.mktemp("events") / "events.jsonl"
    rec = ObsRecorder(512, spill_path=str(spill))
    store = LogStructuredStore(cfg, make_policy("adapt", cfg), recorder=rec)
    trace = generate_ycsb_a(4096, 12_000, density=DensityPreset.LIGHT,
                            read_ratio=0.0, seed=3)
    store.replay(trace)
    return rec


def test_events_jsonl_roundtrip(tmp_path, recorder):
    with pytest.raises(ConfigError, match="spills to"):
        write_events_jsonl(recorder.tracer, str(tmp_path / "other.jsonl"))
    path = recorder.tracer.spill_path
    n = write_events_jsonl(recorder.tracer, path)
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert len(lines) == n == sum(recorder.tracer.counts.values())
    types = {ev["type"] for ev in lines}
    assert {"chunk_flush", "gc_pass", "padding"} <= types
    for ev in lines:
        assert {"seq", "t_us", "type"} <= set(ev)


def test_events_jsonl_spill_path_completes_file(tmp_path):
    path = str(tmp_path / "spill.jsonl")
    tracer = EventTracer(capacity=4, spill_path=path)
    for i in range(10):
        tracer.emit("user_write", i, i, i + 1)
    write_events_jsonl(tracer, path)
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert [ev["lba"] for ev in lines] == list(range(10))


def test_timeseries_csv(tmp_path, recorder):
    """The recorder's time series exports as the timeline CSV."""
    path = str(tmp_path / "timeline.csv")
    n = write_timeline_csv(recorder.timeline, path)
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == recorder.timeline.columns
    assert len(rows) == n + 1
    final = dict(zip(rows[0], rows[-1]))
    # The CSV is the canonical artifact: its final WA must equal the
    # in-memory stats exactly even after text round-trip.
    stats = recorder._store.stats
    assert float(final["write_amplification"]) == \
        stats.write_amplification()
    assert int(final["flash_blocks"]) == stats.flash_blocks_written


def test_prometheus_text_parses(recorder):
    text = prometheus_text(recorder.registry)
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"


def test_prometheus_histogram_shape():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=[1, 2], help="x")
    h.observe(0.5)
    h.observe(1.5)
    h.observe(9.0)
    text = prometheus_text(reg)
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="2"} 2' in text
    assert 'lat_bucket{le="+Inf"} 3' in text
    assert "lat_count 3" in text
    assert "lat_sum 11" in text


def test_write_prometheus(tmp_path, recorder):
    path = str(tmp_path / "snap.prom")
    write_prometheus(recorder.registry, path)
    content = open(path, encoding="utf-8").read()
    assert "lss_user_blocks_total" in content
    assert "# TYPE lss_chunk_fill_blocks histogram" in content


def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("demo_writes_total",
                "blocks written\nsince start \\ overall").inc(42)
    reg.gauge("demo_write_amplification", "current WA").set(1.5)
    h = reg.histogram("demo_fill_blocks", buckets=[1, 2, float("inf")],
                      help="chunk fill levels")
    h.observe(0.5)
    h.observe(2.0)
    h.observe(99.0)
    return reg


def test_prometheus_golden_file():
    """Byte-for-byte exposition format: cumulative buckets ending in a
    single ``+Inf`` (the caller's explicit inf edge folds into it, never
    duplicating the label), ``_sum``/``_count`` after the buckets, and
    HELP text with backslash and newline escaped."""
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / "registry.prom"
    assert prometheus_text(_golden_registry()) == golden.read_text()


def test_prometheus_help_escaping():
    text = prometheus_text(_golden_registry())
    assert ("# HELP demo_writes_total "
            "blocks written\\nsince start \\\\ overall") in text
    # Exactly one +Inf bucket despite the explicit inf edge.
    assert text.count('le="+Inf"') == 1


def test_prometheus_histogram_sum_count_positions():
    """_sum and _count directly follow the buckets, per the format."""
    lines = prometheus_text(_golden_registry()).splitlines()
    i = lines.index('demo_fill_blocks_bucket{le="+Inf"} 3')
    assert lines[i + 1] == "demo_fill_blocks_sum 101.5"
    assert lines[i + 2] == "demo_fill_blocks_count 3"


def test_writers_create_parent_dirs_atomically(tmp_path):
    """Exporters land in not-yet-existing directories via tmp+rename."""
    reg = _golden_registry()
    path = str(tmp_path / "a" / "b" / "snap.prom")
    write_prometheus(reg, path)
    assert "demo_writes_total 42" in open(path, encoding="utf-8").read()
    # Only the final artifact remains — no .tmp litter.
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == \
        ["snap.prom"]
