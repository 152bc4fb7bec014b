"""Block-level I/O trace model, parsers, statistics, synthetic generators
and chunked streams."""

from repro.trace.model import OP_READ, OP_WRITE, Trace
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.stream import DEFAULT_CHUNK_REQUESTS, SyntheticVolumeStream

__all__ = ["Trace", "OP_READ", "OP_WRITE", "TraceStats", "compute_stats",
           "SyntheticVolumeStream", "DEFAULT_CHUNK_REQUESTS"]
