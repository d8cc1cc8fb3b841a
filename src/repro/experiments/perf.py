"""The engine's standard perf matrix and the perf history reader.

The engine's queries-per-second is the multiplier on every scenario ×
method × seed job the sweep subsystem schedules.  The repository
benchmark (``perfbench/``) times it and CI gates it, so this module
only declares *what* is timed:

* :data:`PERF_MATRIX` — the *standard matrix* of workloads (captive
  and autonomous, small and paper-scale populations).  ``perfbench``
  builds its ``engine_paper`` workload from the ``captive_large`` cell,
  and the wall-clock overhead guards time the ``quick`` cells.
* :func:`load_history` / :func:`format_history` — read and render the
  committed ``BENCH_history.jsonl`` trend (``repro perf history``).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass

from repro.simulation.config import (
    DepartureRules,
    SimulationConfig,
    WorkloadSpec,
    paper_config,
    scaled_config,
)
from repro.telemetry.bundle import history_trend

__all__ = [
    "PERF_MATRIX",
    "PERF_METHODS",
    "PerfCell",
    "format_history",
    "load_history",
]

#: Methods timed in every cell (the paper's three).
PERF_METHODS = ("sqlb", "capacity", "mariposa")


@dataclass(frozen=True)
class PerfCell:
    """One workload of the standard matrix."""

    name: str
    build: Callable[[], SimulationConfig]
    #: In the small-population subset the overhead guards time.
    quick: bool = False


def _autonomous(config: SimulationConfig) -> SimulationConfig:
    return config.with_departures(DepartureRules.autonomous(True))


PERF_MATRIX: tuple[PerfCell, ...] = (
    PerfCell(
        "captive_small",
        lambda: scaled_config(
            duration=120.0, workload=WorkloadSpec.fixed(0.8)
        ),
        quick=True,
    ),
    PerfCell(
        "autonomy_small",
        lambda: _autonomous(
            scaled_config(duration=120.0, workload=WorkloadSpec.fixed(1.0))
        ),
        quick=True,
    ),
    PerfCell(
        "captive_large",
        lambda: paper_config(
            duration=60.0,
            sample_interval=30.0,
            warmup_time=15.0,
            workload=WorkloadSpec.fixed(0.8),
        ),
    ),
    PerfCell(
        "autonomy_large",
        lambda: _autonomous(
            paper_config(
                duration=60.0,
                sample_interval=30.0,
                warmup_time=15.0,
                workload=WorkloadSpec.fixed(1.0),
            )
        ),
    ),
)


def load_history(path: str) -> list[dict]:
    """Every parseable row of a perf history file, in file order.

    The file is append-only JSONL, so a torn tail from an interrupted
    append is skipped, never poisoning the earlier rows.
    """
    rows: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from an interrupted append
            if isinstance(row, dict) and "cells" in row:
                rows.append(row)
    return rows


def format_history(rows: list[dict]) -> str:
    """Trend table over history rows (oldest first), times in UTC."""
    if not rows:
        return "no perf history rows"
    lines = [
        f"{'when (UTC)':<17} {'mode':<6} {'engine':<7} {'aggregate':>10} "
        f"{'delta':>7}  cells"
    ]
    for row in history_trend(rows):
        lines.append(
            f"{row['when']:<17} {row['mode']:<6} {row['engine']:<7} "
            f"{row['aggregate']:>10,.0f} {row['delta']:>7}  {row['cells']}"
        )
    return "\n".join(lines)
