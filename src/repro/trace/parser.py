"""Parsers for on-disk trace formats.

Three formats are supported:

* ``csv`` — the library's native format:
  ``timestamp_us,op,offset_bytes,size_bytes`` with ``op`` in {``R``, ``W``}.
* ``msr`` — MSR-Cambridge block traces [Narayanan et al., ToS'08]:
  ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`` where the
  timestamp is Windows filetime (100 ns ticks) and offset/size are bytes.
* ``ali`` — the Alibaba cloud block-trace format [Li et al., ToS'23]:
  ``device_id,opcode,offset,length,timestamp`` with timestamp already in
  microseconds.

All parsers normalise to the :class:`~repro.trace.model.Trace`
struct-of-arrays container with block-granular offsets and sizes.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from repro.common.errors import TraceFormatError
from repro.common.units import BLOCK_SIZE
from repro.trace.model import OP_READ, OP_WRITE, Trace

_WRITE_TOKENS = {"w", "write", "1"}
_READ_TOKENS = {"r", "read", "0"}


def _open_text(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"))
    return open(path, "r")


def _op_code(token: str) -> int:
    t = token.strip().lower()
    if t in _WRITE_TOKENS:
        return OP_WRITE
    if t in _READ_TOKENS:
        return OP_READ
    raise TraceFormatError(f"unknown op token {token!r}")


def _to_block_range(offset_bytes: int, size_bytes: int) -> tuple[int, int]:
    """Convert a byte extent into the covering block extent."""
    if size_bytes <= 0:
        raise TraceFormatError(f"non-positive request size {size_bytes}")
    first = offset_bytes // BLOCK_SIZE
    last = (offset_bytes + size_bytes - 1) // BLOCK_SIZE
    return first, last - first + 1


def _build(rows: list[tuple[int, int, int, int]], volume: str) -> Trace:
    try:
        trace = Trace.from_rows(rows, volume=volume)
    except OverflowError as exc:
        raise TraceFormatError(
            f"{volume}: a timestamp, offset or size does not fit in a "
            f"signed 64-bit integer") from exc
    order = np.argsort(trace.timestamps, kind="stable")
    trace = Trace(trace.timestamps[order], trace.ops[order],
                  trace.offsets[order], trace.sizes[order], volume=volume)
    return trace.validate()


def parse_csv(source: str | Path | Iterable[str], volume: str = "csv") -> Trace:
    """Parse the native CSV format (header line optional)."""
    lines = _iter_lines(source)
    rows: list[tuple[int, int, int, int]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if lineno == 1 and not parts[0].lstrip("-").isdigit():
            continue  # header
        if len(parts) != 4:
            raise TraceFormatError(f"line {lineno}: expected 4 fields")
        try:
            ts = int(parts[0])
            op = _op_code(parts[1])
            off_b, sz_b = int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        off, sz = _to_block_range(off_b, sz_b)
        rows.append((ts, op, off, sz))
    return _build(rows, volume)


def parse_msr(source: str | Path | Iterable[str], volume: str = "msr") -> Trace:
    """Parse an MSR-Cambridge trace; timestamps converted from 100 ns ticks.

    The first timestamp is rebased to zero so synthetic and real traces share
    a time origin.
    """
    lines = _iter_lines(source)
    rows: list[tuple[int, int, int, int]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 6:
            raise TraceFormatError(f"line {lineno}: expected >= 6 fields")
        try:
            ts = int(parts[0]) // 10  # 100 ns ticks -> microseconds
            op = _op_code(parts[3])
            off_b, sz_b = int(parts[4]), int(parts[5])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        off, sz = _to_block_range(off_b, sz_b)
        rows.append((ts, op, off, sz))
    if rows:
        base = min(r[0] for r in rows)
        rows = [(ts - base, op, off, sz) for ts, op, off, sz in rows]
    return _build(rows, volume)


def parse_ali(source: str | Path | Iterable[str], volume: str = "ali") -> Trace:
    """Parse the Alibaba block-trace format (offset/length in bytes)."""
    lines = _iter_lines(source)
    rows: list[tuple[int, int, int, int]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TraceFormatError(f"line {lineno}: expected 5 fields")
        try:
            op = _op_code(parts[1])
            off_b, sz_b = int(parts[2]), int(parts[3])
            ts = int(parts[4])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        off, sz = _to_block_range(off_b, sz_b)
        rows.append((ts, op, off, sz))
    if rows:
        base = min(r[0] for r in rows)
        rows = [(ts - base, op, off, sz) for ts, op, off, sz in rows]
    return _build(rows, volume)


def _iter_lines(source: str | Path | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with _open_text(source) as fh:
            yield from fh
    else:
        yield from source


_PARSERS = {"csv": parse_csv, "msr": parse_msr, "ali": parse_ali}


def load_trace(path: str | Path, fmt: str = "csv", volume: str | None = None) -> Trace:
    """Load a trace file in one of the supported formats."""
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise TraceFormatError(
            f"unknown format {fmt!r}; expected one of {sorted(_PARSERS)}"
        ) from None
    return parser(path, volume=volume or Path(path).stem)
