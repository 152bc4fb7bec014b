"""Phase profiler: spans, aggregates, Chrome trace, global install."""

import json

import pytest

from repro.obs.profile import (NULL_PROFILER, NullProfiler, PhaseProfiler,
                               current, set_current)


@pytest.fixture(autouse=True)
def reset_global():
    yield
    set_current(None)


def test_span_records_count_and_duration():
    p = PhaseProfiler()
    for _ in range(3):
        with p.span("gc"):
            pass
    with p.span("apply"):
        pass
    assert p.totals["gc"][0] == 3
    assert p.totals["apply"][0] == 1
    assert all(total >= 0 for _, total in p.totals.values())
    assert len(p.events) == 4
    assert p.elapsed_ns() > 0


def test_spans_nest():
    p = PhaseProfiler()
    with p.span("outer"):
        with p.span("inner"):
            pass
    # Completion order: inner closes first.
    assert [e[0] for e in p.events] == ["inner", "outer"]
    # The outer span covers the inner one.
    assert p.totals["outer"][1] >= p.totals["inner"][1]


def test_span_records_on_exception():
    p = PhaseProfiler()
    with pytest.raises(RuntimeError):
        with p.span("boom"):
            raise RuntimeError("x")
    assert p.totals["boom"][0] == 1


def test_max_events_drops_raw_but_keeps_aggregates():
    p = PhaseProfiler(max_events=2)
    for _ in range(5):
        with p.span("x"):
            pass
    assert len(p.events) == 2
    assert p.dropped_events == 3
    assert p.totals["x"][0] == 5
    assert "3 raw spans dropped" in p.top_table()
    assert "profile_events_dropped=3" in p.top_table()
    with pytest.raises(ValueError):
        PhaseProfiler(max_events=-1)


def test_chrome_trace_structure():
    p = PhaseProfiler()
    with p.span("chunk_build", chunk=7):
        pass
    trace = p.chrome_trace()
    meta, ev = trace["traceEvents"]
    assert meta["ph"] == "M" and meta["name"] == "process_name"
    assert ev["ph"] == "X" and ev["name"] == "chunk_build"
    assert ev["dur"] >= 0 and ev["ts"] >= 0  # microseconds
    assert ev["args"] == {"chunk": 7}
    assert trace["otherData"] == {"profile_events_dropped": 0,
                                  "max_events": 200_000}


def test_write_chrome_trace_creates_parents(tmp_path):
    p = PhaseProfiler()
    with p.span("s"):
        pass
    path = str(tmp_path / "deep" / "nested" / "trace.json")
    assert p.write_chrome_trace(path) == path
    loaded = json.load(open(path, encoding="utf-8"))
    assert any(e.get("name") == "s" for e in loaded["traceEvents"])
    # No tmp files left behind by the atomic write.
    assert [f.name for f in (tmp_path / "deep" / "nested").iterdir()] == \
        ["trace.json"]


def test_top_table_contents():
    p = PhaseProfiler()
    with p.span("alpha"):
        pass
    table = p.top_table()
    assert "alpha" in table and "% wall" in table
    assert "(no spans recorded)" in PhaseProfiler().top_table()


def test_null_profiler_is_inert():
    span = NULL_PROFILER.span("anything", key=1)
    with span:
        pass
    assert not NullProfiler.enabled
    # The same shared span object every time: zero allocation per span.
    assert NULL_PROFILER.span("other") is span


def test_global_install_and_reset():
    assert current() is NULL_PROFILER
    p = PhaseProfiler()
    assert set_current(p) is p
    assert current() is p
    assert set_current(None) is NULL_PROFILER
    assert current() is NULL_PROFILER


def test_store_captures_active_profiler():
    from repro.lss.config import LSSConfig
    from repro.lss.store import LogStructuredStore
    from repro.placement.registry import make_policy
    from repro.trace.synthetic.ycsb import DensityPreset, generate_ycsb_a

    p = set_current(PhaseProfiler())
    cfg = LSSConfig(logical_blocks=4096, segment_blocks=64)
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg))
    set_current(None)
    assert store.profiler is p
    trace = generate_ycsb_a(4096, 8000, density=DensityPreset.LIGHT,
                            read_ratio=0.0, seed=1)
    store.replay(trace)
    # Replay phases landed in the captured profiler, not the global null.
    assert {"expand", "finalize"} <= set(p.totals)
    assert "gc" in p.totals  # update-heavy enough to trigger cleaning
