"""LSS configuration validation and derived quantities."""

import pytest

from repro.array.chunk import ChunkGeometry
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.lss.config import LSSConfig


def test_derived_segment_counts():
    cfg = LSSConfig(logical_blocks=25_600, segment_blocks=256,
                    over_provisioning=0.25)
    assert cfg.logical_segments == 100
    assert cfg.physical_segments == 125
    assert cfg.physical_blocks == 125 * 256


def test_segment_must_be_chunk_multiple():
    with pytest.raises(ConfigError):
        LSSConfig(logical_blocks=1024, segment_blocks=20)


def test_basic_validation():
    with pytest.raises(ConfigError):
        LSSConfig(logical_blocks=0)
    with pytest.raises(ConfigError):
        LSSConfig(logical_blocks=1024, over_provisioning=0.0)
    with pytest.raises(ConfigError):
        LSSConfig(logical_blocks=1024, coalesce_window_us=-1)
    with pytest.raises(ConfigError):
        LSSConfig(logical_blocks=1024, gc_free_low=0)
    with pytest.raises(ConfigError):
        LSSConfig(logical_blocks=1024, gc_free_low=9, gc_free_high=8)


def test_validate_for_groups_headroom():
    cfg = LSSConfig(logical_blocks=4096, segment_blocks=16,
                    chunk=ChunkGeometry(chunk_bytes=16 * KiB),
                    over_provisioning=0.25)
    cfg.validate_for_groups(2)  # plenty of headroom
    with pytest.raises(ConfigError):
        cfg.validate_for_groups(60)


def test_config_is_frozen():
    cfg = LSSConfig(logical_blocks=1024)
    with pytest.raises(AttributeError):
        cfg.logical_blocks = 5
