"""Plain-text rendering of experiment outputs.

Every bench prints the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent (fixed-width ASCII
tables, one row per sample or workload level, one column per method).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

__all__ = [
    "format_series_table",
    "format_curve_table",
    "format_reason_table",
    "format_surface",
]


def _format_value(value: float, precision: int) -> str:
    if value != value:  # NaN
        return "-"
    return f"{value:.{precision}f}"


def format_series_table(
    times: np.ndarray,
    series_by_method: Mapping[str, np.ndarray],
    value_label: str,
    time_label: str = "time(s)",
    precision: int = 3,
    max_rows: int = 25,
) -> str:
    """One figure's time series: a row per sample, a column per method.

    Long series are thinned evenly to ``max_rows`` rows so benches stay
    readable; the final sample is always included.
    """
    methods = list(series_by_method)
    n = len(times)
    if any(len(series_by_method[m]) != n for m in methods):
        raise ValueError("all series must align with the time axis")
    if n > max_rows:
        picks = np.unique(
            np.linspace(0, n - 1, max_rows).round().astype(int)
        )
    else:
        picks = np.arange(n)

    header = [f"{time_label:>10}"] + [f"{m:>12}" for m in methods]
    lines = [f"# {value_label}", " ".join(header)]
    for i in picks:
        row = [f"{times[i]:>10.1f}"] + [
            f"{_format_value(float(series_by_method[m][i]), precision):>12}"
            for m in methods
        ]
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_curve_table(
    x_values: Sequence[float],
    values_by_method: Mapping[str, np.ndarray],
    value_label: str,
    x_label: str = "workload(%)",
    precision: int = 2,
    x_scale: float = 100.0,
) -> str:
    """A per-workload curve: one row per x value, one column per method."""
    methods = list(values_by_method)
    header = [f"{x_label:>12}"] + [f"{m:>12}" for m in methods]
    lines = [f"# {value_label}", " ".join(header)]
    for i, x in enumerate(x_values):
        row = [f"{x * x_scale:>12.0f}"] + [
            f"{_format_value(float(values_by_method[m][i]), precision):>12}"
            for m in methods
        ]
        lines.append(" ".join(row))
    return "\n".join(lines)


def format_reason_table(tables: Mapping[str, Mapping]) -> str:
    """Render the Table 3 structure for every method.

    ``tables`` maps method name to the method's entry in a ``reasons``
    figure payload: ``cells[reason][dimension][band]`` and
    ``totals[reason]``, percentages of the initial provider population.
    """
    lines = []
    for method, table in tables.items():
        lines.append(f"== {method} ==")
        lines.append(
            f"{'reason':<18} {'dimension':<12} "
            f"{'low':>7} {'medium':>7} {'high':>7} {'total':>7}"
        )
        for reason, dims in table["cells"].items():
            total = table["totals"][reason]
            for dimension, bands in dims.items():
                lines.append(
                    f"{reason:<18} {dimension:<12} "
                    f"{bands['low']:>6.1f}% {bands['medium']:>6.1f}% "
                    f"{bands['high']:>6.1f}% {total:>6.1f}%"
                )
        lines.append("")
    return "\n".join(lines)


def format_surface(
    x_axis: np.ndarray,
    y_axis: np.ndarray,
    surface: np.ndarray,
    value_label: str,
    x_label: str = "x",
    y_label: str = "y",
    max_cols: int = 9,
    max_rows: int = 11,
    precision: int = 2,
) -> str:
    """A 2-D surface (Figures 2-3) as a thinned grid of values."""
    if surface.shape != (len(x_axis), len(y_axis)):
        raise ValueError(
            f"surface shape {surface.shape} does not match the axes"
        )
    rows = np.unique(
        np.linspace(0, len(x_axis) - 1, max_rows).round().astype(int)
    )
    cols = np.unique(
        np.linspace(0, len(y_axis) - 1, max_cols).round().astype(int)
    )
    corner = x_label + "\\" + y_label
    header = [f"{corner:>12}"] + [f"{y_axis[j]:>8.2f}" for j in cols]
    lines = [f"# {value_label}", " ".join(header)]
    for i in rows:
        row = [f"{x_axis[i]:>12.2f}"] + [
            f"{surface[i, j]:>8.{precision}f}" for j in cols
        ]
        lines.append(" ".join(row))
    return "\n".join(lines)
