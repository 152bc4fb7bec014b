"""The ``analyze`` bottleneck explainer: loaders, ranking, CLI."""

from __future__ import annotations

import json

import pytest

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
    with p.span("plan"):
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
    assert trace["phases"]["plan"]["count"] == 1
    assert trace["phases"]["plan"]["total_us"] >= 0


def test_load_timeline_tail_csv(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("user_blocks,write_amplification\n"
                        "100,1.5\n200,1.25\n")
    tail = load_timeline_tail(str(csv_path))
    assert tail == {"user_blocks": 200, "write_amplification": 1.25}
    # Empty cells are the exporter's NaN (sepgc has no threshold); they
    # load as None, the exporter's JSON rule.
    nan_path = tmp_path / "n.csv"
    nan_path.write_text("user_blocks,threshold\n100,\n")
    assert load_timeline_tail(str(nan_path))["threshold"] is None
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
    store.replay(default_workloads(num_requests=800)[0])
    return attr.snapshot()


def test_analyze_names_wa_groups(tmp_path):
    snap = _attribution_snapshot()
    report = analyze(trace=load_chrome_trace(_write_trace(tmp_path)),
                     attribution=snap)
    assert report["schema"] == ANALYZE_SCHEMA
    assert set(report) == {"schema", "profile", "wa_groups",
                           "gc_provenance", "recommendations"}
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
        "schema": 2,
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
    }
    report = analyze(
        trace={"phases": {"gc": {"count": 1, "total_us": 5.0}},
               "profile_events_dropped": 12},
        attribution=attribution)
    recs = "\n".join(report["recommendations"])
    assert "already been migrated" in recs  # remigration > 0.3
    assert "valid" in recs                  # valid ratio > 0.5
    assert "WA overhead blocks" in recs     # top group share >= 0.5
    assert "profiler spans were dropped" in recs
    text = render_report(report)
    assert "WA ledger" in text
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
    assert "Phase profile" in text
    assert "WA ledger" in text
    with open(out_path, encoding="utf-8") as f:
        report = json.load(f)
    assert report["wa_groups"]


def test_cli_analyze_requires_an_artifact(tmp_path, capsys):
    from repro.cli import main
    assert main(["analyze"]) == 1
    # A missing file is a loud failure, not a silent empty report.
    assert main(["analyze", "--trace",
                 str(tmp_path / "missing.json")]) == 1


def _strict_json(path):
    """Parse ``path`` as JSON proper: NaN and Infinity raise."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_constant=refuse)


@pytest.fixture(scope="module")
def sepgc_timeline(tmp_path_factory):
    """A real sepgc timeline: its threshold column is NaN throughout."""
    from repro.cli import main
    out = tmp_path_factory.mktemp("obs")
    assert main(["replay", "--scheme", "sepgc", "--volumes", "1",
                 "--scale", "smoke", "--timeline-every", "4096",
                 "--out", str(out)]) == 0
    return str(out / "ali-000.timeline.csv")


def test_cli_analyze_timeline_report_is_strict_json(sepgc_timeline,
                                                    tmp_path, capsys):
    from repro.cli import main
    out_path = str(tmp_path / "r.json")
    assert main(["analyze", "--timeline", sepgc_timeline,
                 "--out", out_path]) == 0
    final = _strict_json(out_path)["timeline_final"]
    assert final["threshold"] is None
    assert final["write_amplification"] > 1.0


def test_cli_analyze_renders_a_timeline_alone(sepgc_timeline, capsys):
    from repro.cli import main
    assert main(["analyze", "--timeline", sepgc_timeline]) == 0
    text = capsys.readouterr().out
    assert "nothing to analyze" not in text
    assert "== Timeline (final row) ==" in text
    for label in ("WA:", "padding ratio:", "GC ratio:",
                  "threshold: n/a", "free segments:"):
        assert label in text, label
