"""Plain-text and Markdown table formatting for experiment outputs.

The CLI and the examples print "the same rows the paper reports"; these
helpers turn lists of dicts into aligned ASCII or Markdown tables without
pulling in any plotting or tabulation dependency.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from ..errors import ConfigurationError


def format_quantity(value: object, precision: int = 3) -> str:
    """Format one cell: floats get engineering-friendly formatting."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return "nan"
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


def _normalise_rows(rows: Sequence[Mapping[str, object]],
                    columns: Sequence[str] | None) -> tuple[list[str], list[list[str]]]:
    if not rows:
        raise ConfigurationError("cannot format an empty table")
    if columns is None:
        columns = list(rows[0].keys())
    rendered = []
    for row in rows:
        rendered.append([format_quantity(row.get(column, "")) for column in columns])
    return list(columns), rendered


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render rows as an aligned ASCII table."""
    header, body = _normalise_rows(rows, columns)
    widths = [len(column) for column in header]
    for row in body:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Iterable[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(header))
    lines.append("-+-".join("-" * width for width in widths))
    for row in body:
        lines.append(render_row(row))
    return "\n".join(lines)


def markdown_table(rows: Sequence[Mapping[str, object]],
                   columns: Sequence[str] | None = None) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    header, body = _normalise_rows(rows, columns)
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
