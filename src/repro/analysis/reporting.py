"""Plain-text table and series rendering, and CSV export.

Every benchmark prints the rows/series its paper table or figure
reports, using these helpers so output stays uniform and diffable.
Every sweep table — the analysis sweeps and ``repro sweep --csv`` —
exports through :func:`to_csv`, driven by the sweep's column table.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Fixed-width table; all cells rendered with str()."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render(list(headers)))
    lines.append(render(["-" * width for width in widths]))
    lines.extend(render(row) for row in str_rows)
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence, unit: str = "") -> str:
    """One figure series as 'name: x=y' pairs."""
    pairs = ", ".join(f"{x}={_fmt(y)}{unit}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def to_csv(rows: Iterable, columns: Mapping[str, str]) -> str:
    """CSV text: a header of the column names, then one line per row.

    ``columns`` maps each column name to the format spec of its cells
    (``format(value, spec)``: ``".3f"``, ``"d"`` to print a bool as
    0/1, ``""`` for plain text); each cell is the row's attribute of
    that name.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(getattr(row, name), spec)
                         for name, spec in columns.items()])
    return buffer.getvalue()


def save_csv(rows: Iterable, columns: Mapping[str, str], path: str) -> None:
    """Write :func:`to_csv` text to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_csv(rows, columns))
