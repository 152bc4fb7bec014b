"""CLI entry points."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "replay" in out


def test_parser_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig8", "--scale", "huge"])


def test_replay_command(capsys):
    assert main(["replay", "--scheme", "sepgc", "--profile", "ali",
                 "--volumes", "1", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "sepgc on ali" in out
    assert "ali-000" in out


def test_fig2_command(capsys):
    assert main(["fig2", "--scale", "smoke"]) == 0
    assert "Fig 2" in capsys.readouterr().out


def test_extension_commands_listed(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "multistream" in out and "shared-store" in out
    assert "obs" in out


def test_obs_command_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "obs"
    assert main(["obs", "--scheme", "sepbit", "--scale", "smoke",
                 "--out", str(out_dir), "--timeline-every", "512"]) == 0
    out = capsys.readouterr().out
    assert "chunk_flush" in out
    events = out_dir / "ali-000.events.jsonl"
    timeline = out_dir / "ali-000.timeline.csv"
    prom = out_dir / "ali-000.prom"
    assert sorted(p.name for p in out_dir.iterdir()) == \
        sorted(p.name for p in (events, timeline, prom))
    for path in (events, timeline, prom):
        assert path.stat().st_size > 0
    first = events.read_text().splitlines()[0]
    assert '"type"' in first
    lines = timeline.read_text().splitlines()
    assert lines[0].startswith("user_blocks,time_us,")
    assert int(lines[1].split(",")[0]) == 512
    assert "lss_user_blocks_total" in prom.read_text()


def test_replay_metrics_out(capsys, tmp_path):
    out_dir = tmp_path / "metrics"
    assert main(["replay", "--scheme", "sepgc", "--volumes", "1",
                 "--scale", "smoke", "--metrics-out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "metrics written" in out
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "ali-000.events.jsonl", "ali-000.prom", "ali-000.timeline.csv"]


@pytest.mark.parametrize("argv", [
    ["fleet", "--scheme", "nope"],
    ["fleet", "--victim", "nope", "--workers", "2"],
    ["replay", "--scheme", "nope"],
    ["obs", "--victim", "nope"],
])
def test_unknown_scheme_or_victim_is_a_usage_error(argv, capsys):
    """A bad name fails in the parser — exit 2 and a usage line — before
    any worker or store exists to raise from."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err and "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["--checkpoint-every", "2"], "--checkpoint-every"),
    (["--checkpoint-every", "-1"], "--checkpoint-every"),
    (["--resume"], "--resume"),
    (["--timeline-every", "256"], "--timeline-every"),
])
def test_fleet_flags_that_need_out_are_usage_errors(argv, flag, capsys):
    """Checkpoints, resume and timelines live in ``--out``: without it
    the flag fails in the parser, exit 2 naming it, before any worker."""
    with pytest.raises(SystemExit) as exc:
        main(["fleet", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "usage:" in err


def test_removed_commands_and_flags_are_gone():
    for argv in (["bench"], ["validate", "--engine", "auto"],
                 ["fleet", "--engine", "auto"], ["obs", "--no-trace"],
                 ["obs", "--sample-every", "512"],
                 ["obs", "--event-sample-every", "2"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
