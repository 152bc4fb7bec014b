"""Array helpers of the replay loop.

:mod:`~repro.perf.expand` turns a trace window into its flat block
stream and :mod:`~repro.perf.batch` resolves duplicate-LBA chains inside
one.  :mod:`~repro.perf.engine` and :mod:`~repro.perf.tracecache` only
keep names the frozen ``bench/`` harness wraps or calls.

See ``docs/performance.md`` for the replay loop's design.
"""

from repro.perf.batch import duplicate_chains
from repro.perf.expand import ExpandedTrace, expand_trace

__all__ = [
    "ExpandedTrace",
    "duplicate_chains",
    "expand_trace",
]
