"""Minimal fixed-width ASCII table renderer.

The CLI and the examples print result rows; a single renderer keeps
the output format uniform and diff-able.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["Table"]


class Table:
    """Accumulate rows and render them with aligned columns.

    >>> t = Table(["machine", "Tx"])
    >>> t.add_row(["thinkie", 1.25])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str | None = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[object]) -> None:
        """Append a row; cells are stringified (floats get 4 significant digits)."""
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.4g}")
            else:
                cells.append(str(cell))
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """Render the table to a string (no trailing newline)."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
