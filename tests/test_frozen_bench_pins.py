"""The names the frozen ``bench/`` harness still resolves, and nothing more.

``bench/layers.py`` wraps ``vars(owner)[attr]`` for each of its targets
and ``bench/test_harness.py`` reads a few store flags and policy hooks;
the code behind thirteen of those names is gone.  They stay as stubs — a
callable raises ``NotImplementedError`` naming ``bench/``, an attribute
keeps its inert value — under the comment "pinned by the frozen
`bench/` harness — no caller".  This test lists exactly that surface:
it fails when a stub grows a body again, and when ``bench/`` stops
naming one, with the file and line of the stub to delete.

One more pin is called, not wrapped: ``bench/child.py`` calls
``repro.perf.tracecache.set_enabled(False)`` at every child start, so
that stub must do nothing and return ``None`` instead of raising.
"""

from __future__ import annotations

import ast
import inspect
import os

import pytest

import repro.perf.engine as engine
import repro.perf.tracecache as tracecache
from repro.core.demotion import ProactiveDemotion
from repro.core.policy import AdaptPolicy
from repro.lss.gc import GarbageCollector
from repro.lss.group import Group
from repro.lss.store import LogStructuredStore
from repro.placement.base import PlacementPolicy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = ("bench/layers.py", "bench/test_harness.py")


#: (owner, attribute, how bench/ names it, value of a non-callable pin).
#: The store and collector flags are class attributes: ``bench/`` reads
#: them off instances, which have no ``__dict__`` to hold them.
PINS = [
    (lambda: engine, "expand_trace", '"expand_trace"', None),
    (lambda: engine.BatchedReplayEngine, "replay",
     'BatchedReplayEngine, "replay"', None),
    (lambda: LogStructuredStore, "apply_user_batch", '"apply_user_batch"',
     None),
    (lambda: Group, "append_user_run", '"append_user_run"', None),
    (lambda: ProactiveDemotion, "demotion_targets", '"demotion_targets"',
     None),
    (lambda: PlacementPolicy, "candidate_user_gids",
     "PlacementPolicy.candidate_user_gids", None),
    (lambda: AdaptPolicy, "candidate_user_gids",
     "AdaptPolicy.candidate_user_gids", None),
    (lambda: AdaptPolicy, "on_full_flush_run", '"on_full_flush_run"',
     None),
    (lambda: LogStructuredStore, "_fast_flush", "store._fast_flush",
     False),
    (lambda: LogStructuredStore, "_fast_full", "store._fast_full", False),
    # The store's event seam replaced the per-block GC hook and the
    # policy's flush hook by its own event names.
    (lambda: ProactiveDemotion, "on_gc_block", '"on_gc_block"', None),
    (lambda: GarbageCollector, "_notify_gc_block",
     "store.gc._notify_gc_block", False),
    (lambda: AdaptPolicy, "on_chunk_flush", '"on_chunk_flush"', None),
]


def _stub_location(owner, attr: str) -> str:
    """``file:line`` of the stub that defines ``attr`` on ``owner``."""
    value = vars(owner)[attr]
    if callable(value):
        path = inspect.getsourcefile(value)
        line = inspect.getsourcelines(value)[1]
        return f"{os.path.relpath(path, ROOT)}:{line}"
    cls = owner if isinstance(owner, type) else type(owner)
    path = inspect.getsourcefile(cls)
    with open(path, encoding="utf-8") as f:
        for line, text in enumerate(f, 1):
            if f"{attr} =" in text:
                return f"{os.path.relpath(path, ROOT)}:{line}"
    raise AssertionError(f"no assignment of {attr} in {path}")


def _bench_names(needle: str, files=BENCH_FILES) -> bool:
    for name in files:
        with open(os.path.join(ROOT, name), encoding="utf-8") as f:
            if needle in f.read():
                return True
    return False


def test_exactly_thirteen_pins():
    assert len({needle for _, _, needle, _ in PINS}) == len(PINS) == 13


@pytest.mark.parametrize(
    "owner_of,attr,needle,inert", PINS,
    ids=[needle.replace('"', "").replace(", ", ".") for _, _, needle, _
         in PINS])
def test_pin_is_a_stub_bench_still_names(owner_of, attr, needle, inert):
    owner = owner_of()
    assert attr in vars(owner), f"{attr} is no longer defined on {owner!r}"
    where = _stub_location(owner, attr)
    assert _bench_names(needle), (
        f"bench/ no longer names {needle!r}: delete the stub at {where} "
        f"and its entry in this test")
    value = vars(owner)[attr]
    if owner is engine:
        # A re-export: the real function under the name bench/ wraps.
        from repro.perf.expand import expand_trace
        assert value is expand_trace
    elif callable(value):
        with pytest.raises(NotImplementedError, match="bench/"):
            value(None)
    else:
        assert value is inert, f"{where} holds {value!r}, not a stub"


def test_tracecache_set_enabled_is_a_no_op_bench_still_calls():
    where = _stub_location(tracecache, "set_enabled")
    assert _bench_names("tracecache.set_enabled", ("bench/child.py",)), (
        f"bench/child.py no longer calls tracecache.set_enabled: delete "
        f"the stub at {where} and this test")
    public = sorted(n for n in vars(tracecache) if not n.startswith("_"))
    assert public == ["set_enabled"], f"{where}'s module grew {public}"
    fn = ast.parse(inspect.getsource(tracecache.set_enabled)).body[0]
    docstring_only = (len(fn.body) == 1 and isinstance(fn.body[0], ast.Expr)
                      and isinstance(fn.body[0].value, ast.Constant))
    assert docstring_only, f"the stub at {where} grew a body"
    assert tracecache.set_enabled(False) is None
    assert tracecache.set_enabled(True) is None
