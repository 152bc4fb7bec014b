"""Event tracer: counts without a sink, records and JSONL spill with one."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.obs.events import (EV_GC_PASS, EV_USER_WRITE, EVENT_FIELDS,
                              EVENT_TYPES, EventTracer)


def test_emit_and_counts(tmp_path):
    """Both tracers count; only the one with a sink keeps records, and
    reads them back as events with their type's field names."""
    counting = EventTracer(capacity=10)
    keeping = EventTracer(capacity=10, spill_path=str(tmp_path / "e.jsonl"))
    for t in (counting, keeping):
        t.emit(EV_USER_WRITE, 100, 1, 1)
        t.emit(EV_USER_WRITE, 200, 2, 2)
        t.emit(EV_GC_PASS, 300, 7, 0, 5)
        assert t.counts == {EV_USER_WRITE: 2, EV_GC_PASS: 1}
    assert counting.events == ()
    assert [e.seq for e in keeping.events] == [0, 1, 2]
    assert keeping.events[2].fields == {"victim": 7, "group": 0,
                                        "valid_blocks": 5}


def test_every_event_type_names_its_fields():
    assert set(EVENT_FIELDS) == set(EVENT_TYPES)
    assert all(EVENT_FIELDS[t] for t in EVENT_TYPES)


def test_spill_keeps_everything(tmp_path):
    path = str(tmp_path / "events.jsonl")
    t = EventTracer(capacity=3, spill_path=path)
    for i in range(8):
        t.emit(EV_USER_WRITE, i, i, i + 1)
    assert t.spilled == 6 and len(t.events) == 2
    t.spill()
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert [ev["lba"] for ev in lines] == list(range(8))
    assert [ev["seq"] for ev in lines] == list(range(8))
    assert t.spilled == 8 and t.events == ()


def test_first_spill_truncates_stale_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"stale":true}\n')
    t = EventTracer(capacity=4, spill_path=str(path))
    t.emit(EV_USER_WRITE, 1, 9, 1)
    t.spill()
    lines = [json.loads(line) for line in open(path, encoding="utf-8")]
    assert lines == [{"seq": 0, "t_us": 1, "type": EV_USER_WRITE, "lba": 9,
                      "user_blocks": 1}]


def test_spill_requires_path():
    t = EventTracer(capacity=2)
    t.emit(EV_USER_WRITE, 1, 0, 1)
    with pytest.raises(ConfigError):
        t.spill()


def test_capacity_validation():
    with pytest.raises(ConfigError):
        EventTracer(capacity=0)
