"""Human-readable sweep summaries.

Two blocks: a per-point table (one row per grid point, one column per
axis and per registered metric) and, when the grid has a ``seed`` axis,
a cross-seed aggregate table with p50/p95 per non-seed group — the shape
the paper's own multi-seed numbers are quoted in.
"""

from __future__ import annotations

from ..common.report import lookup_path
from .runner import SweepResult

__all__ = ["render_sweep"]


def _short(metric: str) -> str:
    """Column header for a dotted metric path (drop the 'report.' root)."""
    return metric[len("report."):] if metric.startswith("report.") else metric


def _format(value) -> str:
    """One table cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width table with right-aligned columns."""
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) if rows else len(header)
        for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.rjust(width) for header, width in zip(headers, widths))
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_sweep(result: SweepResult, *, metrics: tuple[str, ...]) -> str:
    """Render the sweep report (``metrics`` are the experiment's declared
    dotted result paths; pass ``Experiment.metrics``)."""
    axes = list(result.grid)
    n_points = len(result.points)
    lines = [
        f"Sweep of {result.experiment!r}: {n_points} points over "
        + " x ".join(f"{axis}[{len(values)}]" for axis, values in result.grid.items())
        + (
            "  (fixed: "
            + ", ".join(f"{k}={v}" for k, v in result.fixed.items())
            + ")"
            if result.fixed
            else ""
        ),
        "",
    ]
    headers = axes + [_short(metric) for metric in metrics]
    rows = []
    for point in result.points:
        row = [_format(point["params"][axis]) for axis in axes]
        row += [_format(lookup_path(point["result"], metric)) for metric in metrics]
        rows.append(row)
    lines.append(_table(headers, rows))
    if result.summary:
        lines.append("")
        lines.append("aggregates across seeds (p50/p95 per group):")
        agg_rows = []
        for metric, groups in result.summary.items():
            for label, stats in groups.items():
                agg_rows.append(
                    [
                        _short(metric),
                        label,
                        str(stats["n"]),
                        _format(stats["p50"]),
                        _format(stats["p95"]),
                    ]
                )
        lines.append(_table(["metric", "group", "n", "p50", "p95"], agg_rows))
    return "\n".join(lines)
