"""Plain-text table rendering for the examples and the engine's report.

They print the rows/series the paper's analysis implies (there are no numeric
tables in the paper itself — it is a theory paper); a fixed-width text table
keeps that output readable both on a terminal and when pasted into Markdown
documents.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence


def _render_cell(value: object) -> str:
    if isinstance(value, Fraction):
        return f"{float(value):.4g}"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width text table with a header rule.

    Args:
        headers: Column titles.
        rows: Row values; each row must have the same length as ``headers``.

    Returns:
        The formatted table as a single string (no trailing newline).

    Raises:
        ValueError: if a row's length does not match the header count.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        cells = [_render_cell(value) for value in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but there are {len(headers)} headers"
            )
        rendered_rows.append(cells)
    widths = [len(header) for header in headers]
    for cells in rendered_rows:
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    rule = "-+-".join("-" * width for width in widths)
    body = [
        " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
        for cells in rendered_rows
    ]
    return "\n".join([header_line, rule] + body)
