"""Reporting helpers shared by the examples and the benchmark harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

MIB = 1 << 20
GIB = 1 << 30


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


@dataclass
class PaperComparison:
    """One paper-vs-measured row of EXPERIMENTS.md."""

    quantity: str
    paper_value: str
    measured_value: str
    matches: bool
    note: str = ""

    def as_row(self) -> List[str]:
        status = "ok" if self.matches else "DIFFERS"
        return [self.quantity, self.paper_value, self.measured_value, status,
                self.note]


def comparison_table(comparisons: Sequence[PaperComparison]) -> str:
    """Render paper-vs-measured comparisons as a table."""
    return format_table(
        ["quantity", "paper", "measured", "status", "note"],
        [c.as_row() for c in comparisons])


def within_factor(measured: float, target: float, factor: float) -> bool:
    """True if ``measured`` is within a multiplicative ``factor`` of target."""
    if target == 0:
        return abs(measured) < 1e-12
    ratio = measured / target
    return 1.0 / factor <= ratio <= factor


def mbps(value_bytes_per_second: float) -> str:
    """Format bytes/second as MB/s."""
    return f"{value_bytes_per_second / 1e6:.1f} MB/s"


def mib(value_bytes: float) -> str:
    """Format bytes as MiB."""
    return f"{value_bytes / MIB:.1f} MiB"


def gib(value_bytes: float) -> str:
    """Format bytes as GiB."""
    return f"{value_bytes / GIB:.2f} GiB"


def percent(fraction: float) -> str:
    """Format a fraction as a percentage."""
    return f"{fraction * 100:.1f} %"
