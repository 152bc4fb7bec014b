"""Trace surgery: remapping, rate scaling, multiplexing and its inverse.

The shared-store experiment needs these: re-base sparse volumes onto one
shared address space (cloud block stores serve many volumes per log —
§2.2's deployment) and speed traffic up/down to move it across the SLA
boundary.  :func:`split_by_address` is the inverse of :func:`multiplex`
that the tests check it against.  All transforms are pure (they return
new traces).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import TraceFormatError
from repro.trace.model import Trace


def scale_rate(trace: Trace, factor: float) -> Trace:
    """Speed traffic up (`factor` > 1) or down by scaling all gaps.

    Crossing the coalescing-window boundary this way is how the density
    sensitivity of Fig 11 can be probed on *real* traces.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    ts = (trace.timestamps / factor).astype(np.int64)
    return Trace(ts, trace.ops.copy(), trace.offsets.copy(),
                 trace.sizes.copy(), volume=f"{trace.volume}x{factor:g}")


def remap_offsets(trace: Trace, base: int) -> Trace:
    """Shift the whole address range by ``base`` blocks."""
    if base < 0:
        raise ValueError("base must be >= 0")
    return Trace(trace.timestamps.copy(), trace.ops.copy(),
                 trace.offsets + base, trace.sizes.copy(),
                 volume=trace.volume)


def multiplex(traces: list[Trace],
              address_blocks: list[int] | None = None
              ) -> tuple[Trace, list[int]]:
    """Merge per-volume traces onto one shared address space.

    Each volume gets a disjoint block range (its footprint rounded up, or
    the explicit ``address_blocks``); streams are interleaved by
    timestamp.  Returns ``(merged_trace, base_offsets)``.

    This is the shared-log deployment of §2.2: one LSS instance serving
    many sparse volumes, where their combined density fills chunks that no
    single volume could.
    """
    if not traces:
        raise TraceFormatError("nothing to multiplex")
    if address_blocks is None:
        address_blocks = [t.max_lba() + 1 for t in traces]
    if len(address_blocks) != len(traces):
        raise ValueError("address_blocks length mismatch")
    bases, cursor = [], 0
    shifted = []
    for trace, span in zip(traces, address_blocks):
        if trace.max_lba() + 1 > span:
            raise ValueError(
                f"volume {trace.volume} exceeds its {span}-block range")
        bases.append(cursor)
        shifted.append(remap_offsets(trace, cursor))
        cursor += span
    merged = Trace.concat(shifted, volume="+".join(t.volume
                                                   for t in traces))
    return merged, bases


def split_by_address(trace: Trace, bases: list[int],
                     spans: list[int]) -> list[Trace]:
    """Inverse of :func:`multiplex`: carve per-volume traces back out."""
    if len(bases) != len(spans):
        raise ValueError("bases/spans length mismatch")
    out = []
    for base, span in zip(bases, spans):
        m = (trace.offsets >= base) & (trace.offsets + trace.sizes
                                       <= base + span)
        out.append(Trace(trace.timestamps[m], trace.ops[m],
                         trace.offsets[m] - base, trace.sizes[m],
                         volume=f"{trace.volume}@{base}"))
    return out
