"""Plain-text and CSV rendering of sweep results.

The benchmark harness and the CLI both print the same rows the paper's
figures plot: one row per swept parameter value, one column per heuristic,
accuracy in percent.
"""

from __future__ import annotations

import io

from repro.evaluation.harness import SweepResult

__all__ = ["render_sweep_table", "render_csv", "render_markdown"]


def render_sweep_table(result: SweepResult, title: str = "",
                       metric: str = "matched") -> str:
    """Render a sweep as an aligned text table (accuracy in %).

    Args:
        result: the sweep to render.
        title: optional heading line.
        metric: ``"matched"`` (default) or ``"captured"``.
    """
    series = result.series(metric)
    names = list(series)
    header = [result.parameter.upper()] + names
    rows = [[f"{value:g}"] + [f"{series[name][index] * 100:5.1f}"
                              for name in names]
            for index, value in enumerate(result.values)]

    widths = [max(len(header[column]),
                  max((len(row[column]) for row in rows), default=0))
              for column in range(len(header))]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write("  ".join(cell.rjust(width)
                        for cell, width in zip(header, widths)) + "\n")
    out.write("  ".join("-" * width for width in widths) + "\n")
    for row in rows:
        out.write("  ".join(cell.rjust(width)
                            for cell, width in zip(row, widths)) + "\n")
    return out.getvalue()


def render_csv(result: SweepResult, metric: str = "matched") -> str:
    """Render a sweep as CSV (accuracy as a 0-1 fraction)."""
    series = result.series(metric)
    names = list(series)
    lines = [",".join([result.parameter] + names)]
    for index, value in enumerate(result.values):
        cells = [f"{value:g}"] + [f"{series[name][index]:.4f}"
                                  for name in names]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_markdown(result: SweepResult, metric: str = "matched") -> str:
    """Render a sweep as a GitHub-flavored markdown table (accuracy in %).

    This is the format EXPERIMENTS.md embeds, so regenerated numbers can be
    pasted into the documentation verbatim.
    """
    series = result.series(metric)
    names = list(series)
    lines = ["| " + result.parameter.upper() + " | "
             + " | ".join(names) + " |",
             "|" + "---|" * (len(names) + 1)]
    for index, value in enumerate(result.values):
        cells = " | ".join(f"{series[name][index] * 100:.1f}"
                           for name in names)
        lines.append(f"| {value:g} | {cells} |")
    return "\n".join(lines) + "\n"

