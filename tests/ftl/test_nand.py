"""Page-mapped FTL unit tests."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.ftl.nand import FlashGeometry, PageMappedFTL


def make_ftl(logical=256, blocks=24, ppb=16, streams=1):
    return PageMappedFTL(FlashGeometry(blocks, ppb), logical,
                         num_streams=streams)


def test_geometry_validation():
    with pytest.raises(ConfigError):
        FlashGeometry(2)
    with pytest.raises(ConfigError):
        FlashGeometry(8, 0)
    assert FlashGeometry(8, 32).total_pages == 256


def test_ftl_capacity_validation():
    with pytest.raises(ConfigError):
        PageMappedFTL(FlashGeometry(4, 16), logical_pages=1000)
    with pytest.raises(ConfigError):
        make_ftl(streams=0)


def test_write_and_remap():
    ftl = make_ftl()
    ftl.write(5)
    ftl.write(5)
    assert ftl.host_pages == 2
    # Exactly one valid copy of lpn 5.
    assert int(ftl._page_valid.sum()) == 1
    ftl.check_invariants()


def test_trim_invalidates():
    ftl = make_ftl()
    for lpn in range(10):
        ftl.write(lpn)
    ftl.trim(0, 5)
    assert int(ftl._page_valid.sum()) == 5
    ftl.check_invariants()


def test_device_gc_reclaims_and_counts():
    ftl = make_ftl(logical=128, blocks=12, ppb=16)
    rng = np.random.default_rng(0)
    for lpn in rng.integers(0, 128, size=4000):
        ftl.write(int(lpn))
    assert ftl.erases > 0
    assert ftl.device_write_amplification() >= 1.0
    ftl.check_invariants()


def test_sequential_overwrite_has_low_device_wa():
    """Whole-block-aligned sequential overwrites leave dead flash blocks:
    GC finds empty victims and device WA stays ~1."""
    ftl = make_ftl(logical=256, blocks=28, ppb=16)
    for _ in range(30):
        for lpn in range(256):
            ftl.write(lpn)
    assert ftl.device_write_amplification() < 1.05
    ftl.check_invariants()


def test_streams_separate_lifetimes():
    """Two populations with different update rates: separating them into
    streams must lower device WA vs mixing them."""
    def run(streams):
        ftl = PageMappedFTL(FlashGeometry(40, 16), logical_pages=400,
                            num_streams=2 if streams else 1)
        rng = np.random.default_rng(1)
        for lpn in range(400):
            ftl.write(lpn, 0)
        for _ in range(12_000):
            if rng.random() < 0.9:
                lpn = int(rng.integers(0, 40))      # hot tenth
                ftl.write(lpn, 0)
            else:
                lpn = int(rng.integers(40, 400))    # cold rest
                ftl.write(lpn, 1 if streams else 0)
        ftl.check_invariants()
        return ftl.device_write_amplification()

    assert run(streams=True) < run(streams=False)


def test_out_of_range_rejected():
    ftl = make_ftl()
    with pytest.raises(ValueError):
        ftl.write(-1)
    with pytest.raises(ValueError):
        ftl.write(10_000)
    with pytest.raises(ValueError):
        ftl.write(0, stream=5)


def test_trim_outside_range_is_ignored():
    ftl = make_ftl()
    ftl.write(0)
    ftl.trim(-5, 3)       # no-op
    ftl.trim(250, 100)    # clipped
    ftl.check_invariants()
