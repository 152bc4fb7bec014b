"""Bridge between the LSS store and the device FTL.

Subscribes to the store's physical events (:meth:`LogStructuredStore.
subscribe`): every flushed chunk becomes ``chunk_blocks`` page programs
on the device (stream = the group id in multi-stream mode, 0 otherwise),
and every segment reclamation becomes a trim of the segment's page range
— the discard a production LSS issues.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.observer import StoreObserver
from repro.ftl.nand import FlashGeometry, PageMappedFTL
from repro.lss.store import LogStructuredStore
from repro.trace.model import Trace

#: Flash pages per erase block, and the device's over-provisioned share of
#: flash beyond the host-visible pages.
PAGES_PER_BLOCK = 64
FLASH_OP = 0.15


class StreamBridge(StoreObserver):
    """Feeds a store's flush/erase stream into a :class:`PageMappedFTL`."""

    def __init__(self, store: LogStructuredStore,
                 multi_stream: bool = True) -> None:
        # The store keeps the bridge (it subscribes): the bridge keeps
        # only the segment size it trims by, not the store.
        self.segment_blocks = store.config.segment_blocks
        self.multi_stream = multi_stream
        logical_pages = store.config.physical_blocks
        num_streams = len(store.groups) if multi_stream else 1
        blocks_needed = int(logical_pages * (1 + FLASH_OP)) \
            // PAGES_PER_BLOCK + num_streams + 8
        self.ftl = PageMappedFTL(
            FlashGeometry(num_blocks=blocks_needed,
                          pages_per_block=PAGES_PER_BLOCK),
            logical_pages=logical_pages,
            num_streams=num_streams,
        )
        store.subscribe(self)

    def chunk_flush(self, group, flush) -> None:
        # A run of flush.count chunks is contiguous on the device.
        stream = group.gid if self.multi_stream else 0
        start = flush.device_lba_start
        for lpn in range(start, start + flush.total_blocks):
            self.ftl.write(lpn, stream)

    def segment_reclaimed(self, seg: int, group_id: int, created_seq: int,
                          valid_blocks: int, now_us: int) -> None:
        seg_blocks = self.segment_blocks
        self.ftl.trim(seg * seg_blocks, seg_blocks)


@dataclass(frozen=True)
class DeviceWaResult:
    scheme: str
    multi_stream: bool
    host_wa: float          # LSS-level WA (blocks to array / user blocks)
    device_wa: float        # in-device WA (page programs / host pages)
    end_to_end_wa: float    # product: flash programs per user block

    @property
    def label(self) -> str:
        return "multi-stream" if self.multi_stream else "single-stream"


def measure_device_wa(scheme: str, trace: Trace, config,
                      multi_stream: bool, **policy_kwargs) -> DeviceWaResult:
    """Replay ``trace`` with an attached FTL; report host/device/total WA."""
    from repro.placement.registry import make_policy

    policy = make_policy(scheme, config, **policy_kwargs)
    store = LogStructuredStore(config, policy)
    bridge = StreamBridge(store, multi_stream=multi_stream)
    stats = store.replay(trace)
    host_wa = stats.write_amplification()
    device_wa = bridge.ftl.device_write_amplification()
    return DeviceWaResult(scheme=scheme, multi_stream=multi_stream,
                          host_wa=host_wa, device_wa=device_wa,
                          end_to_end_wa=host_wa * device_wa)
