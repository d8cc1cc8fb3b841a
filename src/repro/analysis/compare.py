"""Cross-store comparison: machine-readable regression verdicts.

Two result stores — an old engine version vs. a new one, two branches,
a queue-drained store vs. a static-shard store — are compared cell by
cell: for every (scenario, method) present in both, each registered
metric's across-seed mean is diffed over the *paired* seeds (seeds
readable on both sides), and the signed worsening is taken in the
metric's own direction (response time worsens upward, satisfaction
downward — the :mod:`~repro.analysis.metrics` registry knows which).

A cell regresses when its relative worsening exceeds the metric's
threshold; thresholds are per metric with one default, so a 30 %
response-time regression gate can coexist with a 5 % satisfaction
gate.  The verdict is JSON-ready and ordered, and the CLI exits
non-zero when any regression is present — droppable straight into CI.

Comparison is read-only on both stores: a cell whose results are
absent is *reported* (``incomparable`` / ``missing``), never
simulated.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from repro._checks import check_number
from repro.analysis.metrics import get_metric
from repro.analysis.series import (
    cell_scalar_map,
    cells_from_store,
    jsonable,
)
from repro.experiments.store import ResultStore, key_scope

__all__ = [
    "DEFAULT_COMPARE_METRICS",
    "DEFAULT_THRESHOLD",
    "CellVerdict",
    "CompareReport",
    "compare_stores",
    "format_compare_table",
]

#: Metrics compared by default: the paper's headline number plus the
#: stability/satisfaction axes a regression is most likely to hide in.
DEFAULT_COMPARE_METRICS = (
    "response_time_post_warmup",
    "provider_departure_fraction",
    "consumer_departure_fraction",
    "provider_satisfaction",
)

#: Default relative-worsening threshold.
DEFAULT_THRESHOLD = 0.30


@dataclasses.dataclass(frozen=True)
class CellVerdict:
    """One (scenario, method, metric) comparison.

    ``relative_worsening`` is positive when store B is worse, in the
    metric's own direction, relative to ``|mean_a|``; NaN when either
    side has no usable value (``status == "incomparable"``).
    """

    scenario: str
    method: str
    metric: str
    seeds: tuple[int, ...]
    mean_a: float
    mean_b: float
    worsening: float
    relative_worsening: float
    threshold: float
    status: str  # ok | regression | incomparable

    def payload(self) -> dict:
        return jsonable(
            {
                "scenario": self.scenario,
                "method": self.method,
                "metric": self.metric,
                "seeds": list(self.seeds),
                "mean_a": self.mean_a,
                "mean_b": self.mean_b,
                "worsening": self.worsening,
                "relative_worsening": self.relative_worsening,
                "threshold": self.threshold,
                "status": self.status,
            }
        )


@dataclasses.dataclass(frozen=True)
class CompareReport:
    """The full verdict of one store-vs-store comparison."""

    store_a: str
    store_b: str
    verdicts: tuple[CellVerdict, ...]
    only_in_a: tuple[tuple[str, str], ...]
    only_in_b: tuple[tuple[str, str], ...]
    stale_manifests_a: int
    stale_manifests_b: int

    @property
    def regressions(self) -> tuple[CellVerdict, ...]:
        return tuple(
            v for v in self.verdicts if v.status == "regression"
        )

    @property
    def ok(self) -> bool:
        return not self.regressions

    def payload(self) -> dict:
        return {
            "store_a": self.store_a,
            "store_b": self.store_b,
            "ok": self.ok,
            "regressions": [v.payload() for v in self.regressions],
            "cells": [v.payload() for v in self.verdicts],
            "only_in_a": [list(c) for c in self.only_in_a],
            "only_in_b": [list(c) for c in self.only_in_b],
            "stale_manifests": {
                "a": self.stale_manifests_a,
                "b": self.stale_manifests_b,
            },
        }


def _mean(values: dict[int, float], seeds: tuple[int, ...]) -> float:
    if not seeds:
        return float("nan")
    return float(np.mean([values[s] for s in seeds]))


@key_scope()
def compare_stores(
    root_a: Path | str,
    root_b: Path | str,
    metrics: tuple[str, ...] = DEFAULT_COMPARE_METRICS,
    thresholds: dict[str, float] | None = None,
    default_threshold: float = DEFAULT_THRESHOLD,
) -> CompareReport:
    """Compare every shared cell of two stores, metric by metric.

    ``thresholds`` overrides the relative-worsening gate per metric
    name; everything else uses ``default_threshold``.  Seeds are
    *paired* per metric: a cell is compared over the seeds whose value
    is readable **and non-NaN on both sides**, so an adaptively
    extended store is compared on the common prefix, and a seed whose
    metric is undefined on one side (e.g. no post-warmup queries)
    drops out of *both* means instead of skewing one of them.
    """
    thresholds = thresholds or {}
    unknown = set(thresholds) - set(metrics)
    if unknown:
        raise ValueError(
            "thresholds given for metrics not being compared: "
            f"{sorted(unknown)}"
        )
    # A cell is flagged when relative > threshold, which a NaN threshold
    # never is: refuse it (and negative or infinite ones) up front.
    check_number(
        "compare_stores", "default_threshold", default_threshold, ge=0
    )
    for name, value in thresholds.items():
        check_number("compare_stores", f"thresholds[{name!r}]", value, ge=0)
    resolved = [get_metric(name) for name in metrics]
    cells_a, stale_a = cells_from_store(root_a)
    cells_b, stale_b = cells_from_store(root_b)
    store_a = ResultStore(root_a)
    store_b = ResultStore(root_b)
    map_a = {(c.scenario, c.method): c for c in cells_a}
    map_b = {(c.scenario, c.method): c for c in cells_b}
    shared = sorted(set(map_a) & set(map_b))
    verdicts: list[CellVerdict] = []
    extracts = {metric.name: metric.extract for metric in resolved}
    for key in shared:
        scenario, method = key
        cell_a, cell_b = map_a[key], map_b[key]
        # One result deserialisation per (seed, store), shared by every
        # metric — not one per metric.
        all_a, _ = cell_scalar_map(store_a, cell_a, extracts)
        all_b, _ = cell_scalar_map(store_b, cell_b, extracts)
        for metric in resolved:
            values_a = all_a[metric.name]
            values_b = all_b[metric.name]
            paired = tuple(
                sorted(
                    seed
                    for seed in set(values_a) & set(values_b)
                    if not math.isnan(values_a[seed])
                    and not math.isnan(values_b[seed])
                )
            )
            threshold = thresholds.get(metric.name, default_threshold)
            mean_a = _mean(values_a, paired)
            mean_b = _mean(values_b, paired)
            worsening = metric.worsening(mean_a, mean_b)
            if math.isnan(worsening):
                relative = float("nan")
                status = "incomparable"
            else:
                if mean_a != 0.0:
                    relative = worsening / abs(mean_a)
                elif worsening <= 0.0:
                    relative = 0.0
                else:
                    # Worsened away from an exactly-zero baseline: any
                    # finite threshold is exceeded (0 → 0.1 departures
                    # is not "within 30 % of zero").
                    relative = float("inf")
                status = (
                    "regression" if relative > threshold else "ok"
                )
            verdicts.append(
                CellVerdict(
                    scenario=scenario,
                    method=method,
                    metric=metric.name,
                    seeds=paired,
                    mean_a=mean_a,
                    mean_b=mean_b,
                    worsening=worsening,
                    relative_worsening=relative,
                    threshold=threshold,
                    status=status,
                )
            )
    return CompareReport(
        store_a=str(root_a),
        store_b=str(root_b),
        verdicts=tuple(verdicts),
        only_in_a=tuple(sorted(set(map_a) - set(map_b))),
        only_in_b=tuple(sorted(set(map_b) - set(map_a))),
        stale_manifests_a=stale_a,
        stale_manifests_b=stale_b,
    )


def format_compare_table(report: CompareReport) -> str:
    """Human rendering: one row per verdict, regressions flagged."""
    lines = [
        f"# compare: A={report.store_a}  B={report.store_b}",
        f"{'scenario':<30} {'method':<10} {'metric':<30} {'seeds':>5} "
        f"{'A':>10} {'B':>10} {'worse%':>8}  verdict",
    ]

    def _cell(value: float) -> str:
        return f"{'--':>10}" if math.isnan(value) else f"{value:>10.4f}"

    for verdict in report.verdicts:
        relative = verdict.relative_worsening
        if math.isnan(relative):
            worse = f"{'--':>8}"
        elif math.isinf(relative):
            worse = f"{'inf':>8}"
        else:
            worse = f"{100.0 * relative:>7.1f}%"
        flag = (
            "REGRESSION"
            if verdict.status == "regression"
            else verdict.status
        )
        lines.append(
            f"{verdict.scenario:<30} {verdict.method:<10} "
            f"{verdict.metric:<30} {len(verdict.seeds):>5} "
            f"{_cell(verdict.mean_a)} {_cell(verdict.mean_b)} "
            f"{worse}  {flag}"
        )
    for label, cells in (
        ("only in A", report.only_in_a),
        ("only in B", report.only_in_b),
    ):
        for scenario, method in cells:
            lines.append(f"{label}: {scenario} / {method}")
    lines.append(
        "verdict: "
        + ("OK" if report.ok else f"{len(report.regressions)} regression(s)")
    )
    return "\n".join(lines)
