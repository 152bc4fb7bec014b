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


def test_replay_out_writes_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "obs"
    assert main(["replay", "--scheme", "sepbit", "--volumes", "1",
                 "--scale", "smoke", "--out", str(out_dir),
                 "--timeline-every", "512"]) == 0
    out = capsys.readouterr().out
    assert "sepbit on ali" in out and "artifacts:" in out
    events = out_dir / "ali-000.events.jsonl"
    timeline = out_dir / "ali-000.timeline.csv"
    prom = out_dir / "ali-000.prom"
    assert sorted(p.name for p in out_dir.iterdir()) == \
        sorted(p.name for p in (events, timeline, prom))
    for path in (events, timeline, prom):
        assert path.stat().st_size > 0
    assert '"type":"chunk_flush"' in events.read_text().splitlines()[0]
    lines = timeline.read_text().splitlines()
    assert lines[0].startswith("user_blocks,time_us,")
    assert int(lines[1].split(",")[0]) == 512
    assert "lss_user_blocks_total" in prom.read_text()


def test_replay_metrics_out(capsys, tmp_path):
    """``replay --out`` writes the three artifacts for every volume of
    the fleet, plus attribution with ``--attribution``."""
    out_dir = tmp_path / "metrics"
    assert main(["replay", "--scheme", "sepgc", "--volumes", "2",
                 "--scale", "smoke", "--attribution",
                 "--out", str(out_dir)]) == 0
    assert "artifacts:" in capsys.readouterr().out
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"ali-00{v}.{ext}" for v in (0, 1)
        for ext in ("attribution.json", "events.jsonl", "prom",
                    "timeline.csv")]


def test_replay_artifacts_do_not_depend_on_fleet_size(tmp_path):
    """A volume is generated from its name, not its place in the fleet,
    so ``replay --volumes 1`` and ``--volumes 2`` write the same bytes
    for ``ali-000``: one command serves one volume and many."""
    one, two = tmp_path / "one", tmp_path / "two"
    for volumes, out_dir in (("1", one), ("2", two)):
        assert main(["replay", "--volumes", volumes, "--scale", "smoke",
                     "--out", str(out_dir)]) == 0
    for ext in ("events.jsonl", "timeline.csv", "prom"):
        name = f"ali-000.{ext}"
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["fleet", "--scheme", "nope"],
    ["fleet", "--victim", "nope", "--workers", "2"],
    ["replay", "--scheme", "nope"],
    ["replay", "--victim", "nope"],
    ["validate", "--policies", "adapt,nope"],
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


def test_zero_volumes_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--volumes", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --volumes: must be >= 1" in err and "usage:" in err


@pytest.mark.parametrize("argv,flag", [
    (["--resume"], "--resume"),
    (["--timeline-every", "256"], "--timeline-every"),
])
def test_fleet_flags_that_need_out_are_usage_errors(argv, flag, capsys):
    """Resume and timelines live in ``--out``: without it
    the flag fails in the parser, exit 2 naming it, before any worker."""
    with pytest.raises(SystemExit) as exc:
        main(["fleet", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "usage:" in err


@pytest.mark.parametrize("argv,flag", [
    (["--attribution"], "--attribution"),
    (["--timeline-every", "256"], "--timeline-every"),
])
def test_replay_flags_that_need_out_are_usage_errors(argv, flag, capsys):
    """Replay's attribution and timelines live in ``--out`` too, checked by
    the same parser rule as fleet's: exit 2 naming the flag, before any
    replay."""
    with pytest.raises(SystemExit) as exc:
        main(["replay", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "usage:" in err


def test_removed_commands_and_flags_are_gone():
    for argv in (["bench"], ["validate", "--engine", "auto"],
                 ["fleet", "--engine", "auto"], ["obs"],
                 ["replay", "--metrics-out", "d"],
                 ["fleet", "--checkpoint-every", "2", "--out", "d"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
