"""Event tracer: ring semantics, spill, JSONL round-trip."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.obs.events import EV_GC_PASS, EV_USER_WRITE, EventTracer


def test_emit_and_counts():
    t = EventTracer(capacity=10)
    t.emit(EV_USER_WRITE, 100, lba=1)
    t.emit(EV_USER_WRITE, 200, lba=2)
    t.emit(EV_GC_PASS, 300, victim=7)
    assert len(t) == 3
    assert t.counts == {EV_USER_WRITE: 2, EV_GC_PASS: 1}
    assert [e.seq for e in t.events] == [0, 1, 2]
    assert list(t.iter_type(EV_GC_PASS))[0].fields["victim"] == 7


def test_ring_drops_oldest_without_spill():
    t = EventTracer(capacity=3)
    for i in range(5):
        t.emit(EV_USER_WRITE, i, lba=i)
    assert len(t) == 3
    assert t.dropped == 2
    assert [e.fields["lba"] for e in t.events] == [2, 3, 4]


def test_spill_keeps_everything(tmp_path):
    path = str(tmp_path / "events.jsonl")
    t = EventTracer(capacity=3, spill_path=path)
    for i in range(8):
        t.emit(EV_USER_WRITE, i, lba=i)
    t.spill()
    assert t.dropped == 0
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert [ev["lba"] for ev in lines] == list(range(8))
    assert [ev["seq"] for ev in lines] == list(range(8))


def test_first_spill_truncates_stale_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"stale":true}\n')
    t = EventTracer(capacity=4, spill_path=str(path))
    t.emit(EV_USER_WRITE, 1, lba=9)
    t.spill()
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert lines == [{"seq": 0, "t_us": 1, "type": EV_USER_WRITE, "lba": 9}]


def test_spill_requires_path():
    t = EventTracer(capacity=2)
    t.emit(EV_USER_WRITE, 1)
    with pytest.raises(ConfigError):
        t.spill()


def test_capacity_validation():
    with pytest.raises(ConfigError):
        EventTracer(capacity=0)
