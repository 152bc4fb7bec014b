"""A failed atomic write changes nothing on disk."""

import errno

import pytest

from repro.obs.atomicio import atomic_write


def _write_old(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_bytes(b'{"old": true}\n')
    return path


def test_exception_inside_atomic_write_keeps_destination_and_no_tmp(
        tmp_path):
    path = _write_old(tmp_path)
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_write(str(path)) as f:
            f.write('{"new": ')
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b'{"old": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_disk_full_mid_write_keeps_destination_and_no_tmp(
        tmp_path, disk_fills_mid_write):
    path = _write_old(tmp_path)
    with pytest.raises(OSError) as exc:
        with atomic_write(str(path)) as f:
            f.write('{"new": "a longer payload than the old one"}\n')
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == b'{"old": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
