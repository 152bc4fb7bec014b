"""The ``analyze`` bottleneck explainer: loaders, ranking, CLI."""

from __future__ import annotations

import json

from repro.obs.analyze import (
    ANALYZE_SCHEMA,
    analyze,
    load_chrome_trace,
    load_timeline_tail,
    render_report,
    write_report_json,
)
from repro.obs.attribution import AttributionRecorder
from repro.obs.profile import PhaseProfiler


def _write_trace(tmp_path):
    p = PhaseProfiler()
    with p.span("chunk_build"):
        for _ in range(3):
            with p.span("gc_pass"):
                pass
    path = str(tmp_path / "trace.json")
    p.write_chrome_trace(path)
    return path


def test_load_chrome_trace_aggregates(tmp_path):
    trace = load_chrome_trace(_write_trace(tmp_path))
    assert trace["profile_events_dropped"] == 0
    assert trace["phases"]["gc_pass"]["count"] == 3
    assert trace["phases"]["chunk_build"]["count"] == 1
    assert trace["phases"]["chunk_build"]["total_us"] >= 0


def test_load_chrome_trace_legacy_dropped_key(tmp_path):
    path = str(tmp_path / "legacy.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": [],
                   "otherData": {"dropped_events": 7}}, f)
    assert load_chrome_trace(path)["profile_events_dropped"] == 7


def test_load_timeline_tail_csv_and_jsonl(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("user_blocks,write_amplification\n"
                        "100,1.5\n200,1.25\n")
    tail = load_timeline_tail(str(csv_path))
    assert tail == {"user_blocks": 200.0, "write_amplification": 1.25}
    jsonl_path = tmp_path / "t.jsonl"
    jsonl_path.write_text('{"user_blocks": 100}\n{"user_blocks": 300}\n')
    assert load_timeline_tail(str(jsonl_path)) == {"user_blocks": 300}
    empty = tmp_path / "e.csv"
    empty.write_text("user_blocks\n")
    assert load_timeline_tail(str(empty)) is None


def _attribution_snapshot():
    from repro.lss.store import LogStructuredStore
    from repro.placement.registry import make_policy
    from repro.validate.differential import (default_workloads,
                                             differential_config)
    cfg = differential_config()
    attr = AttributionRecorder()
    store = LogStructuredStore(cfg, make_policy("sepgc", cfg),
                               attribution=attr)
    store.replay(default_workloads(num_requests=800)[0], engine="batched")
    return attr.snapshot()


def test_analyze_names_dominant_cause_and_wa_groups(tmp_path):
    snap = _attribution_snapshot()
    report = analyze(trace=load_chrome_trace(_write_trace(tmp_path)),
                     attribution=snap)
    assert report["schema"] == ANALYZE_SCHEMA
    cb = report["chunk_bounds"]
    assert cb["dominant_cause"] in {
        c["cause"] for c in cb["ranked"]}
    assert cb["ranked"] == sorted(cb["ranked"],
                                  key=lambda r: -r["chunks"])
    wa = report["wa_groups"]
    assert wa and abs(sum(r["overhead_share"] for r in wa) - 1.0) < 0.01
    assert report["gc_provenance"]["victims"] > 0
    assert 0.0 <= report["gc_provenance"]["mean_valid_ratio"] <= 1.0
    assert isinstance(report["recommendations"], list)


def test_analyze_sections_optional():
    report = analyze()
    assert set(report) == {"schema", "recommendations"}
    assert "nothing to analyze" in render_report(report)
    timeline_only = analyze(timeline={"write_amplification": 1.4})
    assert timeline_only["timeline_final"]["write_amplification"] == 1.4


def test_recommendations_fire_on_thresholds():
    attribution = {
        "schema": 1,
        "ledger": {"groups": {
            "hot": {"gid": 0, "kind": "user", "user_blocks": 100,
                    "gc_blocks": 900, "shadow_blocks": 0,
                    "padding_blocks": 0, "total_blocks": 1000},
            "cold": {"gid": 1, "kind": "user", "user_blocks": 100,
                     "gc_blocks": 10, "shadow_blocks": 0,
                     "padding_blocks": 0, "total_blocks": 110}},
            "totals": {}},
        "gc_provenance": {"groups": {}, "totals": {
            "victims": 10, "valid_blocks": 90, "free_blocks": 10,
            "age_seq_sum": 1000, "migrated_user_origin": 40,
            "migrated_gc_origin": 50}},
        "chunk_bounds": {"causes": {
            "gc_capacity": {"chunks": 80, "requests": 160, "blocks": 320},
            "trace_end": {"chunks": 1, "requests": 9, "blocks": 9}},
            "chunks": 81, "chunk_requests_hist": {},
            "chunk_blocks_hist": {}},
    }
    report = analyze(
        trace={"phases": {"gc": {"count": 1, "total_us": 5.0}},
               "profile_events_dropped": 12},
        attribution=attribution)
    recs = "\n".join(report["recommendations"])
    assert "gc_capacity" in recs            # dominant-cause hint
    assert "already been migrated" in recs  # remigration > 0.3
    assert "valid" in recs                  # valid ratio > 0.5
    assert "WA overhead blocks" in recs     # top group share >= 0.5
    assert "profiler spans were dropped" in recs
    text = render_report(report)
    assert "dominant cause: gc_capacity" in text
    assert "WARNING: 12" in text


def test_write_report_json(tmp_path):
    report = analyze(attribution=_attribution_snapshot())
    path = str(tmp_path / "out" / "report.json")
    assert write_report_json(report, path) == path
    with open(path, encoding="utf-8") as f:
        assert json.load(f) == report


def test_cli_analyze_end_to_end(tmp_path, capsys):
    from repro.cli import main
    from repro.obs.attribution import write_attribution_json
    trace_path = _write_trace(tmp_path)
    attr_path = str(tmp_path / "a.attribution.json")
    write_attribution_json(_attribution_snapshot(), attr_path)
    out_path = str(tmp_path / "report.json")
    rc = main(["analyze", "--trace", trace_path,
               "--attribution", attr_path, "--out", out_path])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dominant cause:" in text
    assert "WA ledger" in text
    with open(out_path, encoding="utf-8") as f:
        report = json.load(f)
    assert report["chunk_bounds"]["dominant_cause"]


def test_cli_analyze_requires_an_artifact(tmp_path, capsys):
    from repro.cli import main
    assert main(["analyze"]) == 1
    # A missing file is a loud failure, not a silent empty report.
    assert main(["analyze", "--trace",
                 str(tmp_path / "missing.json")]) == 1
