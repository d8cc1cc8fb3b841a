"""Throughput-regression harness for the simulation engine.

The engine's queries-per-second is the multiplier on every scenario ×
method × seed job the sweep subsystem schedules, so it is guarded like
a correctness property: a *standard matrix* of workloads (captive and
autonomous, small and paper-scale populations) is timed end-to-end, the
results are written to ``BENCH_engine.json``, and CI compares fresh
numbers against the committed baseline, failing on a >30 % drop.

Two entry points, both reachable through ``repro perf``:

* :func:`run_perf` — run the matrix (or its ``--quick`` subset) and
  return a serialisable report.
* :func:`compare_reports` — regression check of a fresh report against
  a baseline file's cells.

Timings are wall-clock and machine-dependent; the committed baseline is
refreshed whenever the engine's performance profile changes materially
(the regression tolerance absorbs machine-to-machine variation).
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.reliability.durability import atomic_write
from repro.simulation.config import (
    DepartureRules,
    SimulationConfig,
    WorkloadSpec,
    paper_config,
    scaled_config,
)
from repro.simulation.engine import ENGINE_VERSION, run_simulation
from repro.telemetry.registry import telemetry_session

__all__ = [
    "PERF_MATRIX",
    "PerfCell",
    "append_history",
    "compare_reports",
    "format_history",
    "format_report",
    "history_row",
    "load_history",
    "run_perf",
]

#: Methods timed in every cell (the paper's three).
PERF_METHODS = ("sqlb", "capacity", "mariposa")

#: Seed used for all perf runs — throughput, not statistics, is measured.
PERF_SEED = 1


@dataclass(frozen=True)
class PerfCell:
    """One workload of the standard matrix."""

    name: str
    build: Callable[[], SimulationConfig]
    #: Included in the ``--quick`` subset (CI smoke).
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


def _phase_breakdown(config, method: str, seed: int) -> dict[str, float]:
    """Per-phase engine seconds from one instrumented pass.

    Runs under a scoped in-memory telemetry session so the pass leaves
    no files behind and the process-wide registry state is untouched.
    """
    with telemetry_session() as telemetry:
        run_simulation(config, method, seed=seed)
        return {
            name: round(seconds, 4)
            for name, seconds in sorted(telemetry.phase_seconds().items())
        }


def run_perf(
    quick: bool = False,
    methods: tuple[str, ...] = PERF_METHODS,
    seed: int = PERF_SEED,
    repeats: int = 2,
    phases: bool = True,
) -> dict:
    """Time the standard matrix serially and return a report dict.

    ``quick`` restricts to the small-population cells — a few seconds of
    wall clock, suitable for CI smoke — and marks the report so a
    comparison never mixes quick and full cells.  Each cell is timed
    ``repeats`` times and the *best* run is reported: throughput is a
    property of the code, and best-of-N filters scheduler and cache
    noise that a single run (and therefore the regression gate) would
    otherwise inherit.

    ``phases`` (default on) adds one *extra* instrumented pass per
    (cell, method) and records its per-phase engine-time breakdown under
    the cell's ``phases`` key.  The timed repeats above stay
    uninstrumented either way, so enabling the breakdown cannot move the
    qps numbers the regression gate compares.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    cells = {}
    total_queries = 0
    total_seconds = 0.0
    for cell in PERF_MATRIX:
        if quick and not cell.quick:
            continue
        config = cell.build()
        for method in methods:
            best_elapsed = None
            queries = 0
            for _ in range(repeats):
                started = time.perf_counter()
                result = run_simulation(config, method, seed=seed)
                elapsed = time.perf_counter() - started
                queries = result.queries_served
                if best_elapsed is None or elapsed < best_elapsed:
                    best_elapsed = elapsed
            payload = {
                "queries": queries,
                "seconds": round(best_elapsed, 4),
                "qps": round(queries / best_elapsed, 1),
            }
            if phases:
                payload["phases"] = _phase_breakdown(config, method, seed)
            cells[f"{cell.name}/{method}"] = payload
            total_queries += queries
            total_seconds += best_elapsed
    return {
        "engine_version": ENGINE_VERSION,
        "mode": "quick" if quick else "full",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": seed,
        "repeats": repeats,
        "cells": cells,
        "aggregate_qps": round(total_queries / total_seconds, 1),
    }


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.30
) -> list[str]:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Only cells present in both reports are compared; a cell regresses
    when its fresh qps drops more than ``tolerance`` below the baseline.
    The tolerance absorbs machine-to-machine and run-to-run variation —
    it guards against structural slowdowns, not noise.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    problems = []
    if current.get("mode") == "full" and baseline.get("mode") == "quick":
        problems.append(
            "baseline is quick-mode: the large cells of this full run "
            "would go ungated — refresh it with `repro perf --out`"
        )
    baseline_cells = baseline.get("cells", {})
    current_cells = current.get("cells", {})
    shared = sorted(set(baseline_cells) & set(current_cells))
    if not shared:
        return [
            "no overlapping cells between current report and baseline "
            f"(baseline has {sorted(baseline_cells)})"
        ]
    for name in shared:
        base_qps = float(baseline_cells[name]["qps"])
        cur_qps = float(current_cells[name]["qps"])
        floor = base_qps * (1.0 - tolerance)
        if cur_qps < floor:
            problems.append(
                f"{name}: {cur_qps:.0f} qps is "
                f"{100.0 * (1.0 - cur_qps / base_qps):.0f}% below the "
                f"baseline {base_qps:.0f} qps (tolerance {tolerance:.0%})"
            )
    return problems


def format_report(report: dict) -> str:
    """Human-readable table of one :func:`run_perf` report."""
    lines = [
        f"engine {report['engine_version']}   mode {report['mode']}   "
        f"python {report['python']}   numpy {report['numpy']}",
        f"{'cell':<28} {'queries':>8} {'seconds':>8} {'qps':>8}",
    ]
    for name, cell in report["cells"].items():
        lines.append(
            f"{name:<28} {cell['queries']:>8} "
            f"{cell['seconds']:>8.2f} {cell['qps']:>8.0f}"
        )
    lines.append(f"aggregate: {report['aggregate_qps']:.0f} queries/sec")
    return "\n".join(lines)


def history_row(report: dict, now: float | None = None) -> dict:
    """One JSONL history row distilled from a :func:`run_perf` report.

    Keeps the qps matrix and the per-phase breakdowns — the two things
    a trend over PRs needs — and drops the per-machine noise fields.
    ``now`` overrides the timestamp (tests and baseline seeding; the
    committed seed row carries ``t: null``).
    """
    return {
        "t": time.time() if now is None else now,
        "engine_version": report["engine_version"],
        "mode": report["mode"],
        "aggregate_qps": report["aggregate_qps"],
        "cells": {
            name: {
                key: cell[key]
                for key in ("qps", "phases")
                if key in cell
            }
            for name, cell in report["cells"].items()
        },
    }


def append_history(
    report: dict, path: str, now: float | None = None
) -> dict:
    """Append one timestamped row to the JSONL history at ``path``.

    Append-only on purpose: rows from different machines and PRs
    accumulate into a trajectory (``repro perf history`` renders it),
    and a torn tail from a crashed writer is skipped on read, never
    poisoning the earlier rows.  Returns the row written.
    """
    row = history_row(report, now)
    line = json.dumps(row, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return row


def load_history(path: str) -> list[dict]:
    """Every parseable row of a perf history file, in file order."""
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
    """Trend table over history rows (oldest first).

    The aggregate column carries a delta against the previous row of
    the *same mode* — comparing a quick row against a full row would
    manufacture a fake cliff.
    """
    if not rows:
        return "no perf history rows"
    lines = [
        f"{'when':<17} {'mode':<6} {'engine':<7} {'aggregate':>10} "
        f"{'delta':>7}  cells"
    ]
    last_by_mode: dict[str, float] = {}
    for row in rows:
        stamp = row.get("t")
        when = (
            time.strftime("%Y-%m-%d %H:%M", time.localtime(stamp))
            if isinstance(stamp, (int, float))
            else "baseline"
        )
        mode = row.get("mode", "?")
        aggregate = float(row.get("aggregate_qps", 0.0))
        previous = last_by_mode.get(mode)
        delta = (
            f"{(aggregate / previous - 1.0) * 100:+.0f}%"
            if previous
            else "-"
        )
        last_by_mode[mode] = aggregate
        lines.append(
            f"{when:<17} {mode:<6} {str(row.get('engine_version')):<7} "
            f"{aggregate:>10,.0f} {delta:>7}  {len(row.get('cells', {}))}"
        )
    return "\n".join(lines)


def load_report(path: str) -> dict:
    """Read a report/baseline JSON file."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_report(report: dict, path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))
