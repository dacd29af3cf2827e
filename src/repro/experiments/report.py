"""Small helpers for rendering experiment tables (shared by all benches)."""

from __future__ import annotations

from typing import Any, Sequence


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    def render(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:,.2f}"
        if isinstance(cell, int):
            return f"{cell:,}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [max(len(headers[col]),
                  *(len(row[col]) for row in rendered)) if rendered
              else len(headers[col])
              for col in range(len(headers))]
    lines = []
    header_line = "  ".join(header.ljust(widths[col])
                            for col, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[col] for col in range(len(headers))))
    for row in rendered:
        lines.append("  ".join(
            cell.rjust(widths[col]) if _numeric(cell) else cell.ljust(widths[col])
            for col, cell in enumerate(row)))
    return "\n".join(lines)


def _numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace(".", "").replace("-", "")
    return stripped.isdigit() and bool(stripped)
