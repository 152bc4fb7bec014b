"""``benchmarks/ab_inproc.py``: the package rename, the equality guard
and the shape of what it prints (never a wall-clock figure)."""

from __future__ import annotations

import re
import sys

import pytest

from benchmarks.ab_inproc import (ROOT, Mismatch, Side, compare, guard,
                                  renamed)

_TAGS = ("abtool_a", "abtool_b", "abtool_c")


def test_rename_touches_imports_only():
    source = ('"""repro.core: reproduce it with adapt-repro."""\n'
              "import repro.lss.store\n"
              "from repro import LSSConfig\n"
              "from repro.placement import base\n"
              '_LAZY = {"adapt": "repro.core.policy"}\n')
    assert renamed(source, "repro_x") == (
        '"""repro_x.core: reproduce it with adapt-repro."""\n'
        "import repro_x.lss.store\n"
        "from repro_x import LSSConfig\n"
        "from repro_x.placement import base\n"
        '_LAZY = {"adapt": "repro_x.core.policy"}\n')


@pytest.fixture(scope="module")
def sides(tmp_path_factory):
    """Three copies of the working tree's package, side by side in this
    process; removed from ``sys.modules`` and ``sys.path`` afterwards."""
    into = str(tmp_path_factory.mktemp("packages"))
    made = [Side(f"side {tag}", ROOT, tag, into) for tag in _TAGS]
    yield made
    sys.path.remove(into)
    for name in list(sys.modules):
        if name.split(".")[0] in {s.package for s in made} \
                | {f"workloads_{tag}" for tag in _TAGS}:
            del sys.modules[name]


def _tiny(side):
    return side.workloads.Sizes(blocks=4096, requests=120)


def test_sides_are_separate_packages(sides):
    stores = [type(s.replay(s.cells("baselines_sweep", _tiny(s))[0]))
              for s in sides]
    assert len({cls.__module__ for cls in stores}) == 3
    assert all(cls.__module__.startswith(s.package + ".")
               for cls, s in zip(stores, sides))


def test_guard_refuses_a_side_that_replays_differently(sides, monkeypatch):
    cells = [s.cells("adapt_dense", _tiny(s)) for s in sides]
    guard("adapt_dense", sides, cells)
    real = sides[2].replay

    def off_by_one(cell):
        store = real(cell)
        store.stats.read_requests += 1
        return store

    monkeypatch.setattr(sides[2], "replay", off_by_one)
    with pytest.raises(Mismatch, match=r"adapt_dense .*side abtool_c"):
        guard("adapt_dense", sides, cells)


def test_output_shape(sides):
    lines = compare(sides, "adapt_dense", 0.0, _tiny(sides[0]))
    assert re.fullmatch(r"== adapt_dense: 2 cells, 1 rounds, \d+ user "
                        r"blocks per pass", lines[0])
    for line, name, tag in zip(lines[1:4], ("A ", "B ", "A2"), _TAGS):
        assert re.fullmatch(rf"  {name} side {tag} +\d+\.\d{{4}} s +\d+ "
                            r"blocks/s", line)
    assert re.fullmatch(r"  B/A \d+\.\d{3}", lines[4])
    assert re.fullmatch(r"  A/A \d+\.\d{3}", lines[5])
    assert len(lines) == 6
