"""Table rendering."""

from repro.experiments.report import render_table


def test_render_table_alignment():
    out = render_table(["a", "longheader"], [[1, 2.5], ["xx", 3.25]])
    lines = out.splitlines()
    assert lines[0].startswith("a")
    assert "longheader" in lines[0]
    assert "2.500" in out
    assert "3.250" in out


def test_render_table_title_and_rule():
    out = render_table(["h"], [[1]], title="T")
    assert out.splitlines()[0] == "T"
    assert out.splitlines()[1] == "="


def test_render_table_floatfmt():
    out = render_table(["x"], [[0.123456]], floatfmt=".1f")
    assert "0.1" in out and "0.12" not in out
