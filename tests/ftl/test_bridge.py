"""Store-to-FTL bridge and the §3.1 multi-stream claim."""

import hashlib

import pytest

from repro.ftl.bridge import StreamBridge, measure_device_wa
from repro.lss.config import LSSConfig
from repro.lss.store import LogStructuredStore
from repro.placement.registry import make_policy
from repro.trace.synthetic.ycsb import generate_ycsb_a


@pytest.fixture(scope="module")
def small_cfg():
    return LSSConfig(logical_blocks=4096, segment_blocks=64)


@pytest.fixture(scope="module")
def trace():
    return generate_ycsb_a(4096, 15_000, seed=6, read_ratio=0.0,
                           density=30.0)


def test_bridge_receives_every_flushed_block(small_cfg, trace):
    policy = make_policy("sepgc", small_cfg)
    store = LogStructuredStore(small_cfg, policy)
    bridge = StreamBridge(store, multi_stream=True)
    stats = store.replay(trace)
    # Every block the array wrote was programmed on the device.
    assert bridge.ftl.host_pages == stats.flash_blocks_written
    bridge.ftl.check_invariants()


def test_detach_stops_feed(small_cfg, trace):
    policy = make_policy("sepgc", small_cfg)
    store = LogStructuredStore(small_cfg, policy)
    bridge = StreamBridge(store, multi_stream=True)
    bridge.detach()
    store.replay(trace)
    assert bridge.ftl.host_pages == 0


def test_multi_stream_lowers_device_wa(small_cfg, trace):
    """§3.1: mapping groups to streams one-to-one reduces in-device WA."""
    multi = measure_device_wa("sepbit", trace, small_cfg, multi_stream=True)
    single = measure_device_wa("sepbit", trace, small_cfg,
                               multi_stream=False)
    assert multi.host_wa == pytest.approx(single.host_wa)  # same host run
    assert multi.device_wa <= single.device_wa + 1e-9
    assert multi.end_to_end_wa <= single.end_to_end_wa + 1e-9
    assert multi.label == "multi-stream"


def test_device_wa_at_least_one(small_cfg, trace):
    res = measure_device_wa("adapt", trace, small_cfg, multi_stream=True)
    assert res.device_wa >= 1.0
    assert res.end_to_end_wa >= res.host_wa


#: (scheme, multi_stream) -> (sha256 of the "lpn,stream;" page-program
#: sequence, device WA).  Captured with the per-block GC loop that
#: ``validate/oracle.py`` still specifies; GC now migrates a victim in
#: runs, and a run spanning several chunks must still report every chunk
#: flush at its own device address.
_FTL_GOLDEN = {
    ("adapt", False): (
        "2f884d5e2cb2426da65b0bb4d59167751f9ef1f282dec08c90480320d76a1e01",
        1.1908127208480566),
    ("adapt", True): (
        "4e42ed0c507d40d70b33c7219a4407907499125a4cb142717ac678d4d6d3de74",
        1.1342756183745584),
    ("sepgc", False): (
        "9208e988d883ea2fef1439084473c12acb22e065eef9fb526793c980f38aefb3",
        1.2213822894168467),
    ("sepgc", True): (
        "757cf2e2f69ddafa13e90c0bb3a7a82eec06dafd62bd6aeace05895ed2c36028",
        1.1828653707703383),
}


@pytest.mark.parametrize("scheme,multi_stream", sorted(_FTL_GOLDEN))
def test_ftl_write_sequence_pinned(scheme, multi_stream):
    """The device sees the exact page-program sequence — address and
    stream of every flushed block, GC migrations included."""
    from repro.validate.differential import (default_workloads,
                                             differential_config)
    cfg = differential_config()
    trace = default_workloads(num_requests=1200)[1]  # tencent: GC-heavy
    store = LogStructuredStore(cfg, make_policy(scheme, cfg))
    bridge = StreamBridge(store, multi_stream=multi_stream)
    digest = hashlib.sha256()
    program = bridge.ftl.write

    def spy(lpn, stream=0):
        digest.update(b"%d,%d;" % (lpn, stream))
        program(lpn, stream)

    bridge.ftl.write = spy
    stats = store.replay(trace)
    assert stats.gc_blocks_migrated > 200
    sequence, device_wa = _FTL_GOLDEN[scheme, multi_stream]
    assert bridge.ftl.host_pages == stats.flash_blocks_written
    assert digest.hexdigest() == sequence
    assert bridge.ftl.device_write_amplification() == \
        pytest.approx(device_wa, abs=1e-12)
