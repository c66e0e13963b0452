"""Reporting for the experiment harness: ASCII tables and sweep results.

Every simulating experiment shares one result shape,
:class:`SweepResult`: flat ``rows`` (one frozen dataclass per
measurement, reduced inside the worker by the experiment's registered
``measure`` — :func:`~repro.experiments.methodology.measure` for a paper
figure; :meth:`SweepResult.assemble` builds the result from them)
addressed by field value — ``result.cell(regime="mixed",
policy="paper", steal=True)`` — and laid out by :func:`pivot_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

__all__ = ["SweepResult", "distinct", "format_table", "pivot_table",
           "select"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a simple aligned ASCII table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)] if rows else [
        [str(h)] for h in headers
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(map(str, headers), widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def select(rows: Sequence[Any], **key) -> tuple:
    """The rows whose fields equal ``key``, in order."""
    return tuple(row for row in rows
                 if all(getattr(row, name) == value
                        for name, value in key.items()))


def distinct(rows: Sequence[Any], field: str) -> tuple:
    """The values ``field`` takes over ``rows``, in first-seen order."""
    return tuple(dict.fromkeys(getattr(row, field) for row in rows))


def pivot_table(rows: Sequence[Any], index: Union[str, Sequence[str]],
                columns: Sequence[tuple[str, dict, Callable[[Any], object]]],
                title: str = "") -> str:
    """Pivot flat sweep rows into one table.

    One line per distinct value of the ``index`` field (or tuple of
    fields), in first-seen order; one column per ``(header, key,
    render)`` entry, showing ``render`` of the first row that matches
    the line's index value plus ``key`` — ``{}`` for a column that
    depends on the index alone.
    """
    fields = (index,) if isinstance(index, str) else tuple(index)
    lines = dict.fromkeys(
        tuple(getattr(row, name) for name in fields) for row in rows
    )
    body = [
        [render(select(rows, **dict(zip(fields, line)), **key)[0])
         for _header, key, render in columns]
        for line in lines
    ]
    return format_table([header for header, _key, _render in columns],
                        body, title=title)


@dataclass(frozen=True)
class SweepResult:
    """What an experiment returns (see module docstring)."""

    rows: tuple

    @classmethod
    def assemble(cls, options, cells, rows) -> "SweepResult":
        """The result of ``rows``, measured from ``cells`` in grid order
        (an experiment's registered ``assemble``)."""
        return cls(rows=tuple(rows))

    def select(self, **key) -> tuple:
        return select(self.rows, **key)

    def distinct(self, field: str) -> tuple:
        return distinct(self.rows, field)

    def cell(self, **key) -> Any:
        """The one row whose fields equal ``key``."""
        matches = select(self.rows, **key)
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} rows match {key}")
        return matches[0]
