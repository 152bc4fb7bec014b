"""Shared fixtures: small store configurations and compact traces."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.array.chunk import ChunkGeometry
from repro.common.observer import StoreObserver
from repro.common.units import KiB
from repro.lss.config import LSSConfig
from repro.obs.exporters import write_events_jsonl
from repro.trace.model import OP_WRITE, Trace


@pytest.fixture
def tiny_config() -> LSSConfig:
    """A deliberately small store: 4-block chunks, 16-block segments,
    4096-block logical space — GC cycles within a few thousand writes."""
    return LSSConfig(
        logical_blocks=4096,
        segment_blocks=16,
        chunk=ChunkGeometry(chunk_bytes=16 * KiB),  # 4 blocks per chunk
        over_provisioning=0.25,
        coalesce_window_us=100,
    )


@pytest.fixture
def small_config() -> LSSConfig:
    """Mid-size store used by integration tests."""
    return LSSConfig(logical_blocks=16_384, segment_blocks=128)


def make_write_trace(lbas, start_us: int = 0, gap_us: int = 10,
                     volume: str = "test") -> Trace:
    """Single-block writes at fixed spacing — the workhorse of unit tests."""
    lbas = np.asarray(list(lbas), dtype=np.int64)
    n = lbas.shape[0]
    ts = start_us + np.arange(n, dtype=np.int64) * gap_us
    ops = np.full(n, OP_WRITE, dtype=np.uint8)
    sizes = np.ones(n, dtype=np.int64)
    return Trace(ts, ops, lbas, sizes, volume=volume)


class FlushLog(StoreObserver):
    """Subscribes to ``store`` and keeps every chunk-flush record."""

    def __init__(self, store) -> None:
        self.flushes: list = []
        store.subscribe(self)

    def chunk_flush(self, group, flush) -> None:
        self.flushes.append(flush)


def spilled_events(tracer) -> list[dict]:
    """Every event ``tracer`` recorded, as JSON dicts read back from its
    spill file (a tracer keeps events only when it has one)."""
    write_events_jsonl(tracer, tracer.spill_path)
    with open(tracer.spill_path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


@pytest.fixture
def write_trace_factory():
    return make_write_trace
