"""Atomic artifact writes shared by every obs exporter.

Observability artifacts (metrics snapshots, profiler traces, timelines)
are often written from CI jobs or long benches that may be interrupted;
a torn half-file that parses as truncated JSON is worse than no file.
Writers here write to a temporary file in the destination directory,
then ``os.replace`` it into place — readers see either the old complete
file or the new complete file, never a partial one.  Missing parent
directories are created on the way.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator


def ensure_parent(path: str) -> None:
    """Create ``path``'s parent directory if it does not exist."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


@contextmanager
def atomic_write(path: str, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a temporary text file that replaces ``path`` on clean exit.

    The temporary lives in ``path``'s directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX).  On an
    exception the temporary is removed and ``path`` is left untouched.
    """
    ensure_parent(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


__all__ = ["atomic_write", "ensure_parent"]
