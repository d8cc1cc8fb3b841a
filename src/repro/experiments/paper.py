"""The paper's Section 6.3 figures as figure specs over scenario grids.

Each id ``repro figure`` accepts is data: a
:class:`~repro.analysis.figures.FigureSpec`, the catalog scenario it is
drawn from, and, for the per-workload curves, the fixed workloads that
replace the scenario's own.  :func:`run_figure` runs the grid ×
``PAPER_METHODS`` × seeds as one executor batch and builds the payload
from the returned results with the same
:func:`~repro.analysis.figures.figure_payloads` a store render uses;
:func:`format_figure` prints it with the :mod:`repro.experiments.report`
tables.

* 4a-4h: series of the captive 30→100 % ramp (``captive_ramp``).
* 4i, 5a, 5b: post-warmup response time per workload, captive and
  under the two autonomy rule sets.
* 5c, 6: provider and consumer departure fractions per workload.
* table3: departure reasons by class band at 80 % (``autonomous_full``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.allocation.registry import PAPER_METHODS
from repro.analysis.figures import FigureSpec, figure_payloads
from repro.analysis.metrics import get_metric
from repro.analysis.series import CellRuns
from repro.experiments.executor import SimulationJob, get_default_executor
from repro.experiments.report import (
    format_curve_table,
    format_reason_table,
    format_series_table,
)
from repro.simulation.config import SimulationConfig, WorkloadSpec
from repro.sweeps.scenarios import scenario_catalog

__all__ = [
    "PAPER_FIGURES",
    "PAPER_WORKLOADS",
    "PaperFigure",
    "figure_cells",
    "figure_values",
    "format_figure",
    "run_figure",
]

#: The fixed workloads (fractions of total capacity) of the paper's
#: per-workload curves, which plot 20-100 %.
PAPER_WORKLOADS = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclasses.dataclass(frozen=True)
class PaperFigure:
    """One paper figure: its spec and the grid it is drawn from.

    ``workloads`` empty means the scenario's own workload (one cell
    per method); otherwise one cell per workload and method, each the
    scenario with its workload replaced by that fixed fraction.
    """

    spec: FigureSpec
    scenario: str
    workloads: tuple[float, ...] = ()


#: Figures 4(a)-(h): the series of the captive ramp each one plots.
_RAMP_SERIES = {
    "4a": "provider_intention_satisfaction_mean",
    "4b": "provider_preference_satisfaction_mean",
    "4c": "provider_preference_allocation_satisfaction_mean",
    "4d": "provider_intention_satisfaction_fairness",
    "4e": "consumer_allocation_satisfaction_mean",
    "4f": "consumer_satisfaction_fairness",
    "4g": "utilization_mean",
    "4h": "utilization_fairness",
}

#: The per-workload curves: id → (title, metric, scenario).
_CURVES = {
    "4i": (
        "Figure 4(i): response time (s), captive",
        "response_time_post_warmup",
        "captive_fixed_80",
    ),
    "5a": (
        "Figure 5a: response time (s), autonomous",
        "response_time_post_warmup",
        "autonomous_no_overutilization",
    ),
    "5b": (
        "Figure 5b: response time (s), autonomous",
        "response_time_post_warmup",
        "autonomous_full",
    ),
    "5c": (
        "Figure 5(c): provider departures (%)",
        "provider_departure_fraction",
        "autonomous_full",
    ),
    "6": (
        "Figure 6: consumer departures (%)",
        "consumer_departure_fraction",
        "autonomous_full",
    ),
}

#: id → figure, in the order ``repro figure`` lists them.
PAPER_FIGURES: dict[str, PaperFigure] = {
    **{
        name: PaperFigure(
            FigureSpec(
                name, f"Figure {name}: {series}", "series", series,
                series=series,
            ),
            "captive_ramp",
        )
        for name, series in _RAMP_SERIES.items()
    },
    **{
        name: PaperFigure(
            FigureSpec(
                name, title, "curve", get_metric(metric).label,
                metric=metric,
            ),
            scenario,
            PAPER_WORKLOADS,
        )
        for name, (title, metric, scenario) in _CURVES.items()
    },
    "table3": PaperFigure(
        FigureSpec(
            "table3",
            "Table 3: provider departure reasons at 80 % workload",
            "reasons",
            "departed (%)",
        ),
        "autonomous_full",
    ),
}


def _label(figure: PaperFigure, workload: float) -> str:
    return f"{figure.scenario}@{workload:g}"


def figure_cells(
    which: str,
    seeds: tuple[int, ...],
    base: SimulationConfig | str = "scaled",
) -> list[CellRuns]:
    """The cells of one figure's grid over ``base`` (a scale name or an
    explicit base config), one per (workload, method)."""
    figure = PAPER_FIGURES[which]
    config = scenario_catalog(base, (figure.scenario,))[figure.scenario].config
    grid = [
        (_label(figure, w), config.with_workload(WorkloadSpec.fixed(w)))
        for w in figure.workloads
    ] or [(figure.scenario, config)]
    return [
        CellRuns(label, method, cell_config, seeds)
        for label, cell_config in grid
        for method in PAPER_METHODS
    ]


def run_figure(
    which: str,
    seeds: tuple[int, ...],
    base: SimulationConfig | str = "scaled",
) -> dict:
    """Run one figure's grid as one batch of the default executor, so
    the runs share its worker pool and result store (a warm store
    simulates nothing); return the figure's payload."""
    if not seeds:
        raise ValueError("at least one seed is required")
    # A repeated seed is one run, not a second simulation of it.
    cells = figure_cells(which, tuple(dict.fromkeys(seeds)), base)
    runner = get_default_executor()
    grid = [(cell, seed) for cell in cells for seed in cell.seeds]
    results = runner.run(
        [SimulationJob(cell.config, cell.method, seed) for cell, seed in grid]
    )
    runs: dict[str, dict] = {cell.scenario: {} for cell in cells}
    for (cell, seed), result in zip(grid, results):
        runs[cell.scenario][(cell.method, seed)] = result
    spec = PAPER_FIGURES[which].spec
    return figure_payloads(runner.store, [spec], cells, runs)[spec.name]


def figure_values(which: str, payload: dict) -> dict:
    """Per-method values of a figure payload.

    A series figure gives each method's across-seed mean series, a
    curve its means over :data:`PAPER_WORKLOADS`, and Table 3 each
    method's ``{"cells": …, "totals": …}`` shares.
    """
    figure = PAPER_FIGURES[which]
    scenarios = payload["scenarios"]
    if figure.spec.kind == "reasons":
        return scenarios[figure.scenario]["methods"]
    if figure.spec.kind == "series":
        body = scenarios[figure.scenario]
        return {
            # ``null`` (NaN in the payload) reads back as NaN.
            method: np.asarray(body["methods"][method]["mean"], dtype=float)
            for method in body["method_order"]
        }
    bodies = [scenarios[_label(figure, w)] for w in figure.workloads]
    return {
        method: np.asarray(
            [body["methods"][method]["mean"] for body in bodies], dtype=float
        )
        for method in bodies[0]["method_order"]
    }


def format_figure(which: str, payload: dict, label: str | None = None) -> str:
    """The text table of one figure payload, headed ``label`` (default:
    the spec's title).  Departure fractions print as percentages."""
    figure = PAPER_FIGURES[which]
    label = figure.spec.title if label is None else label
    values = figure_values(which, payload)
    if figure.spec.kind == "reasons":
        return format_reason_table(values)
    if figure.spec.kind == "series":
        times = np.asarray(payload["scenarios"][figure.scenario]["times"])
        return format_series_table(times, values, value_label=label)
    if get_metric(figure.spec.metric).unit == "fraction":
        return format_curve_table(
            figure.workloads,
            {method: 100.0 * v for method, v in values.items()},
            value_label=label,
            precision=1,
        )
    return format_curve_table(figure.workloads, values, value_label=label)
