"""Plain-text table rendering and durable saving for experiment results.

The paper's artifact scripts emit text tables per experiment; these
helpers render the same kind of output from the harness's row dicts, so
benchmark runs print the rows a reader can compare against the paper's
figures.  :func:`save_figure_result` is the one sanctioned way to put a
figure on disk: it goes through :func:`repro.runstate.atomic
.atomic_write_text`, so an interrupted save can never leave a torn
half-figure behind (the REP007 lint enforces this discipline).
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Optional

from ..runstate.atomic import atomic_write_text


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    # Non-floats (including CellFailure) render via str(); a failed cell
    # prints its explicit "FAILED(site)" marker in place of the metric.
    return str(value)


def format_table(
    rows: Iterable[dict[str, Any]],
    columns: Optional[list[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table.

    Args:
        rows: dictionaries; a row without some column shows it blank.
        columns: column order; defaults to every row's keys, in the
            order they are first seen.
        title: optional heading line.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(dict.fromkeys(key for row in rows for key in row))
    table = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        )
    return "\n".join(lines)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's cross-configuration aggregate).

    Failed cells are skipped: a ``CellFailure`` carries ``ok=False``,
    and the ``ok`` check drops it before the ``v > 0`` comparison (which
    a failure would fail with ``TypeError``), so the aggregate covers
    the cells that did produce data."""
    values = [v for v in values if getattr(v, "ok", True) and v > 0]
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def save_figure_result(result: Any, directory: str) -> tuple[str, str]:
    """Write ``<figure_id>.txt`` (rendered table) and
    ``<figure_id>.json`` (machine-readable rows) under ``directory``.

    Both files are written atomically (tmp + fsync + rename), so a
    crash mid-save leaves either the previous complete version or
    nothing — never a torn file that a resumed run would have to
    second-guess.  Returns ``(txt_path, json_path)``.
    """
    os.makedirs(directory, exist_ok=True)
    txt_path = os.path.join(directory, f"{result.figure_id}.txt")
    json_path = os.path.join(directory, f"{result.figure_id}.json")
    atomic_write_text(txt_path, result.render() + "\n")
    atomic_write_text(json_path, result.to_json() + "\n")
    return txt_path, json_path
