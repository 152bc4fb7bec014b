"""ASCII table rendering shared by benches, examples and the CLI."""

from __future__ import annotations

from typing import Any, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None, floatfmt: str = ".3f") -> str:
    """Render a fixed-width table.

    Floats are formatted with ``floatfmt``; everything else via ``str``.
    """
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return format(cell, floatfmt)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)
