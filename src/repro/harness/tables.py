"""Paper-style result tables.

Each figure experiment returns a :class:`FigureResult`: a flat list of
row dicts plus enough metadata to print the same series the paper plots
(one row block per benchmark, one column per process count, one line per
protocol/mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable


def format_table(rows: list[dict[str, Any]], columns: list[str],
                 floatfmt: str = "{:.3g}") -> str:
    """Plain fixed-width table over the given columns."""

    def cell(row: dict[str, Any], col: str) -> str:
        v = row.get(col, "")
        if isinstance(v, float):
            return floatfmt.format(v)
        return str(v)

    data = [[cell(r, c) for c in columns] for r in rows]
    widths = [
        max(len(col), *(len(d[i]) for d in data)) if data else len(col)
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(d[i].ljust(widths[i]) for i in range(len(columns)))
                     for d in data)
    return "\n".join([header, sep, body]) if data else header


@dataclass
class FigureResult:
    """Outcome of one figure experiment."""

    figure: str
    title: str
    #: what the y-value means (for the printed header)
    metric: str
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        """Append one figure point."""
        self.rows.append(row)

    # ------------------------------------------------------------------
    def value(self, workload: str, nprocs: int, line: str,
              line_key: str = "protocol") -> float:
        """The y-value at one (workload, scale, line) point."""
        for r in self.rows:
            if (r["workload"], r["nprocs"], r[line_key]) == (workload, nprocs, line):
                return r["value"]
        raise KeyError((workload, nprocs, line))

    def workloads(self) -> list[str]:
        """Workloads present, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r["workload"])
        return list(seen)

    def lines(self, line_key: str = "protocol") -> list[str]:
        """Plotted lines (protocols/modes), in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r[line_key])
        return list(seen)

    # ------------------------------------------------------------------
    def render(self, line_key: str = "protocol") -> str:
        """The paper-plot layout: per benchmark, protocols × scales."""
        out = [f"== {self.figure}: {self.title}", f"   metric: {self.metric}", ""]
        scales = sorted({r["nprocs"] for r in self.rows})
        for workload in self.workloads():
            out.append(f"-- {workload.upper()}")
            table_rows = []
            for line in self.lines(line_key):
                row: dict[str, Any] = {line_key: line}
                for n in scales:
                    try:
                        row[f"n={n}"] = self.value(workload, n, line, line_key)
                    except KeyError:
                        row[f"n={n}"] = ""
                table_rows.append(row)
            out.append(format_table(table_rows, [line_key] + [f"n={n}" for n in scales]))
            out.append("")
        return "\n".join(out)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form of the figure."""
        return {
            "figure": self.figure,
            "title": self.title,
            "metric": self.metric,
            "rows": list(self.rows),
        }
