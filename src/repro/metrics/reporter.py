"""Plain-text table/series formatting for benchmark output."""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        if value >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Fixed-width text table."""
    str_rows: List[List[str]] = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)
