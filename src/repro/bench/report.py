"""Plain-text reporting of benchmark series (the paper's figures as tables)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import List, Sequence, Union

__all__ = ["Series", "FigureData", "format_table"]

Number = Union[int, float]


@dataclass
class Series:
    """One line of a figure: a name plus y-values over the shared x-axis."""

    name: str
    values: List[float]
    unit: str = ""


@dataclass
class FigureData:
    """One figure: shared x-axis plus any number of series."""

    figure_id: str
    title: str
    x_label: str
    x_values: List[Union[Number, str]]
    series: List[Series] = field(default_factory=list)
    notes: str = ""

    def add(self, name: str, values: Sequence[float], unit: str = "") -> "Series":
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(self.x_values)} x points"
            )
        if any(s.name == name for s in self.series):
            raise ValueError(f"{self.figure_id} already has a series {name!r}")
        s = Series(name, values, unit)
        self.series.append(s)
        return s

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series {name!r} in {self.figure_id}; "
                       f"have {[s.name for s in self.series]}")

    def to_rows(self) -> List[List[str]]:
        header = [self.x_label] + [
            f"{s.name}" + (f" [{s.unit}]" if s.unit else "") for s in self.series
        ]
        rows = [header]
        for i, x in enumerate(self.x_values):
            rows.append([_fmt(x)] + [_fmt(s.values[i]) for s in self.series])
        return rows

    def to_text(self) -> str:
        lines = [f"{self.figure_id}: {self.title}"]
        if self.notes:
            lines.append(f"  ({self.notes})")
        lines.append(format_table(self.to_rows()))
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.to_rows():
            writer.writerow(row)
        return buf.getvalue()


def _fmt(value: Union[Number, str]) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Align rows into a monospace table."""
    if not rows:
        return ""
    widths = [max(len(str(row[i])) for row in rows if i < len(row))
              for i in range(max(len(r) for r in rows))]
    lines = []
    for j, row in enumerate(rows):
        cells = [str(c).rjust(widths[i]) if i > 0 else str(c).ljust(widths[i])
                 for i, c in enumerate(row)]
        lines.append("  " + "  ".join(cells))
        if j == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))
    return "\n".join(lines)
