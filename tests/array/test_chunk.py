"""Chunk geometry."""

import pytest

from repro.array.chunk import ChunkGeometry
from repro.common.errors import ConfigError
from repro.common.units import KiB


def test_default_geometry_is_papers():
    g = ChunkGeometry()
    assert g.chunk_bytes == 64 * KiB
    assert g.block_bytes == 4 * KiB
    assert g.chunk_blocks == 16


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        ChunkGeometry(chunk_bytes=10 * KiB)  # not a block multiple
    with pytest.raises(ConfigError):
        ChunkGeometry(chunk_bytes=0)
    with pytest.raises(ConfigError):
        ChunkGeometry(chunk_bytes=2 * KiB, block_bytes=4 * KiB)
