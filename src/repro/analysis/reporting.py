"""Plain-text and CSV reporting of experiment results.

The experiment runners return lists of row dictionaries (one per plotted point
or headline number).  These helpers render those rows as aligned text tables
for the CLI / benchmark output and export them as CSV files so the figures can
be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Mapping, Sequence


def _collect_columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def format_table(rows: Sequence[Mapping[str, object]], *, missing: str = "-") -> str:
    """Render rows as an aligned plain-text table.

    Rows may have heterogeneous keys (the experiment runners append headline
    rows after the per-point rows); missing cells render as ``missing``.
    """
    if not rows:
        return "(no rows)"
    columns = _collect_columns(rows)
    cells = [[str(row.get(column, missing)) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(row[index]) for row in cells))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(value.ljust(width) for value, width in zip(row, widths)) for row in cells
    )
    return "\n".join([header, separator, body])


def format_html_table(rows: Sequence[Mapping[str, object]], *, missing: str = "-") -> str:
    """Render rows as an HTML ``<table>`` (same column rules as the text table).

    Cell text is escaped; styling is left to the embedding page (the run-record
    dashboard wraps these in its own style scope).
    """
    from html import escape

    if not rows:
        return "<table></table>"
    columns = _collect_columns(rows)
    header = "".join(f"<th>{escape(str(column))}</th>" for column in columns)
    body = "".join(
        "<tr>"
        + "".join(
            f"<td>{escape(str(row.get(column, missing)))}</td>" for column in columns
        )
        + "</tr>"
        for row in rows
    )
    return (
        f"<table><thead><tr>{header}</tr></thead>"
        f"<tbody>{body}</tbody></table>"
    )


def write_csv(rows: Sequence[Mapping[str, object]], path: "str | Path") -> Path:
    """Write rows to ``path`` as CSV; returns the path.

    The column set is the union of keys across rows, in first-seen order.
    """
    path = Path(path)
    columns = _collect_columns(rows)
    if not columns:
        raise ValueError("cannot write a CSV with no rows")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})
    return path


def summarize_comparison(
    paper: Mapping[str, float], measured: Mapping[str, float]
) -> List[Dict[str, object]]:
    """Build paper-vs-measured rows with the relative deviation per metric."""
    rows: List[Dict[str, object]] = []
    for metric in paper:
        reference = float(paper[metric])
        value = float(measured[metric]) if metric in measured else float("nan")
        if reference != 0 and value == value:  # not NaN
            deviation = 100.0 * (value - reference) / reference
        else:
            deviation = float("nan")
        rows.append(
            {
                "metric": metric,
                "paper": reference,
                "measured": value,
                "deviation_pct": round(deviation, 1) if deviation == deviation else "n/a",
            }
        )
    return rows
