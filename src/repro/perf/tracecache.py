"""A name the frozen ``bench/`` harness still calls, and nothing else.

Every trace is generated from its seed; there is no on-disk trace
cache.  ``bench/child.py`` calls :func:`set_enabled` at each child
start, so it must exist until that call goes
(``tests/test_frozen_bench_pins.py`` fails at that point and says which
stub to delete).
"""


# pinned by the frozen `bench/` harness — no caller
def set_enabled(enabled: bool) -> None:
    """Accept and ignore the switch of the deleted trace cache."""
