"""Store-native time-series extraction and across-seed aggregation.

The write side of the system (sweep shards, queue workers) leaves two
artifacts behind: content-addressed result entries and JSON manifests
declaring which (scenario, method, seed) cells those entries cover.
This module is the matching read side: it turns a store directory into
aligned per-seed sampled series and aggregates them across seeds into
the bands every paper figure is made of — mean, p50, p90, and a 95 %
confidence half-width per sample.

Three layers:

* :func:`cells_from_store` — resolve a store's manifests (via the
  :func:`repro.sweeps.runner.manifest_cells` contract) into
  :class:`CellRuns`: one entry per (scenario, method) with its seed
  set and the fully built scenario config.
* :func:`extract_cell_series` — read one named series for every seed
  of a cell through the store's cheap
  :meth:`~repro.experiments.store.ResultStore.load_series` path,
  verifying that every seed sits on the same sample grid (the engine's
  grid is deterministic per config, so a mismatch means the store is
  corrupt or mixes configs under one label — an error, not a warning).
* :func:`cell_band` / :func:`aggregate_band` — the across-seed
  aggregation, NaN-aware per sample, using the same quantiles and CI
  definition as the sweep summary tables
  (:data:`~repro.sweeps.aggregate.SUMMARY_QUANTILES`,
  :data:`~repro.sweeps.aggregate.CI_Z`), so a band's p90 at the final
  sample and a summary row's p90 agree by construction.

Everything here is read-only: a missing seed is *reported*, never
simulated.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path

import numpy as np

from repro.experiments.store import ResultStore
from repro.simulation.config import SimulationConfig, WorkloadSpec
from repro.sweeps.aggregate import CI_Z, SUMMARY_QUANTILES
from repro.sweeps.runner import load_manifests, manifest_cells
from repro.sweeps.spec import SweepSpec

__all__ = [
    "CellRuns",
    "SeriesBand",
    "aggregate_band",
    "band_payload",
    "cell_band",
    "cell_scalars",
    "cells_from_store",
    "extract_cell_series",
    "format_band_table",
    "jsonable",
]


def jsonable(value):
    """JSON-ready form: arrays → lists, NaN/inf → None, recursively.

    The one NaN policy for every exported payload (figure data, band
    dumps, compare verdicts): strict-JSON ``null``, never the
    non-standard ``NaN`` token, so exports parse everywhere.
    """
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


@dataclasses.dataclass(frozen=True)
class CellRuns:
    """One readable sweep cell: where its runs live in a store."""

    scenario: str
    method: str
    config: SimulationConfig
    seeds: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class SeriesBand:
    """Across-seed aggregation of one named series for one cell.

    All arrays share the cell's sample grid.  ``ci_halfwidth`` is the
    95 % normal-approximation half-width of the per-sample mean across
    seeds — NaN wherever fewer than two seeds have a value (undefined,
    not zero, exactly like the scalar
    :func:`~repro.sweeps.aggregate.ci_halfwidth`).  ``missing_seeds``
    are seeds the manifests declared but the store could not serve
    (stale entries, foreign store); they are surfaced, never silently
    dropped.
    """

    scenario: str
    method: str
    name: str
    times: np.ndarray
    mean: np.ndarray
    quantiles: dict[float, np.ndarray]
    ci_halfwidth: np.ndarray
    seeds: tuple[int, ...]
    missing_seeds: tuple[int, ...]


def cells_from_store(
    store_root: Path | str,
) -> tuple[list[CellRuns], int]:
    """Resolve a store directory into readable cells via its manifests.

    Returns ``(cells, stale_manifests)``.  Scenario configs are rebuilt
    from the manifests' spec payloads; if two sweeps in one store
    disagree about what a scenario name means (different scales, say),
    the store is ambiguous and reading it would silently mix
    environments — that is an error the caller must resolve by
    splitting the store, not a judgement call this layer may make.

    A cell declared by a trace-replay manifest gets the manifest's
    recorded ``kind="trace"`` workload grafted onto the scenario
    config, because that is the config its results were keyed under.
    A cell declared both with and without a trace workload (or with
    two different ones) is ambiguous in exactly the same way as a
    two-scale store and raises.
    """
    rows, stale = manifest_cells(load_manifests(store_root))
    configs: dict[str, SimulationConfig] = {}
    # One configs() call per distinct spec payload, not one per row.
    spec_configs: dict[SweepSpec, dict[str, SimulationConfig]] = {}
    cells: list[CellRuns] = []
    for row in rows:
        scenario = row["scenario"]
        for payload in row["specs"]:
            spec = SweepSpec(**payload)
            if spec not in spec_configs:
                spec_configs[spec] = spec.configs()
            config = spec_configs[spec][scenario]
            known = configs.get(scenario)
            if known is None:
                configs[scenario] = config
            elif known != config:
                raise ValueError(
                    f"store {store_root} is ambiguous: scenario "
                    f"{scenario!r} is declared with two different "
                    "configs (sweeps at different scales?); analyze "
                    "the sweeps' stores separately"
                )
        if scenario not in configs:
            # A manifest with no spec payload and no sibling that has
            # one: the cell cannot be keyed into the store at all.
            raise ValueError(
                f"store {store_root} has a manifest declaring "
                f"{scenario!r} without a spec payload; cannot derive "
                "its config"
            )
        config = configs[scenario]
        traces = row.get("trace_workloads") or [None]
        if any(payload is not None for payload in traces):
            if len(traces) != 1:
                raise ValueError(
                    f"store {store_root} is ambiguous: cell "
                    f"({scenario!r}, {row['method']!r}) is declared "
                    "with conflicting trace-replay workloads (or a mix "
                    "of replayed and live runs); analyze the replays' "
                    "stores separately"
                )
            workload = dict(traces[0])
            points = workload.get("points")
            if points is not None:
                workload["points"] = tuple(
                    (float(t), float(v)) for t, v in points
                )
            config = dataclasses.replace(
                config, workload=WorkloadSpec(**workload)
            )
        cells.append(
            CellRuns(
                scenario=scenario,
                method=row["method"],
                config=config,
                seeds=row["seeds"],
            )
        )
    return cells, stale


def extract_cell_series(
    store: ResultStore, cell: CellRuns, name: str
) -> tuple[np.ndarray, dict[int, np.ndarray], tuple[int, ...]]:
    """Read one named series for every seed of a cell.

    Returns ``(times, per_seed, missing)``: the shared sample grid, a
    seed → values mapping (insertion order = sorted seed order), and
    the seeds the store could not serve.  Every served seed must sit on
    exactly the same grid; a mismatch is a corrupt or mixed store and
    raises.
    """
    times: np.ndarray | None = None
    per_seed: dict[int, np.ndarray] = {}
    missing: list[int] = []
    for seed in cell.seeds:
        stored = store.load_series(
            cell.config, cell.method, seed, names=(name,)
        )
        if stored is None:
            missing.append(seed)
            continue
        if times is None:
            times = stored.times
        elif not np.array_equal(times, stored.times):
            raise ValueError(
                f"seed {seed} of ({cell.scenario}, {cell.method}) is "
                f"sampled on a different grid for series {name!r}; "
                "the store mixes incompatible runs under one cell"
            )
        per_seed[seed] = stored.series[name]
    if times is None:
        times = np.empty(0, dtype=float)
    return times, per_seed, tuple(missing)


def aggregate_band(
    per_seed: dict[int, np.ndarray],
) -> tuple[np.ndarray, dict[float, np.ndarray], np.ndarray]:
    """Across-seed per-sample aggregation of aligned series.

    Returns ``(mean, quantiles, ci_halfwidth)`` arrays on the shared
    grid.  NaN samples are ignored per seed (a response-time interval
    with no queries contributes nothing); a sample that is NaN in every
    seed stays NaN.  The CI half-width replicates the scalar
    :func:`~repro.sweeps.aggregate.ci_halfwidth` definition per sample:
    ``CI_Z * std(ddof=1) / sqrt(n)`` over the usable (non-NaN) values,
    NaN wherever ``n < 2``.
    """
    if not per_seed:
        empty = np.empty(0, dtype=float)
        return (
            empty,
            {q: empty.copy() for q in SUMMARY_QUANTILES},
            empty.copy(),
        )
    stacked = np.vstack([per_seed[seed] for seed in sorted(per_seed)])
    usable = ~np.isnan(stacked)
    counts = usable.sum(axis=0)
    # An overflowing variance (finite samples beyond about 1e154) makes
    # an inf half-width, which is the right answer.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"), (
        warnings.catch_warnings()
    ):
        warnings.filterwarnings(
            "ignore", "Mean of empty slice", RuntimeWarning
        )
        warnings.filterwarnings(
            "ignore", "All-NaN slice encountered", RuntimeWarning
        )
        warnings.filterwarnings(
            "ignore", "Degrees of freedom <= 0", RuntimeWarning
        )
        mean = np.nanmean(stacked, axis=0)
        # On a column without NaN, np.quantile gives np.nanquantile's
        # answer bit for bit in one call for all columns, where
        # np.nanquantile makes one per column; only the ragged columns
        # take the NaN rule.
        ragged = np.flatnonzero(~usable.all(axis=0))
        quantiles = {}
        for q in SUMMARY_QUANTILES:
            quantiles[q] = np.quantile(stacked, q, axis=0)
            if ragged.size:
                quantiles[q][ragged] = np.nanquantile(
                    stacked[:, ragged], q, axis=0
                )
        std = np.nanstd(stacked, axis=0, ddof=1)
        halfwidth = np.where(
            counts >= 2,
            CI_Z * std / np.sqrt(np.maximum(counts, 1)),
            float("nan"),
        )
    return mean, quantiles, halfwidth


def cell_band(store: ResultStore, cell: CellRuns, name: str) -> SeriesBand:
    """The full band of one named series for one cell."""
    times, per_seed, missing = extract_cell_series(store, cell, name)
    mean, quantiles, halfwidth = aggregate_band(per_seed)
    return SeriesBand(
        scenario=cell.scenario,
        method=cell.method,
        name=name,
        times=times,
        mean=mean,
        quantiles=quantiles,
        ci_halfwidth=halfwidth,
        seeds=tuple(sorted(per_seed)),
        missing_seeds=missing,
    )


def cell_scalars(
    store: ResultStore, cell: CellRuns, extract
) -> tuple[dict[int, float], tuple[int, ...]]:
    """Per-seed scalar metric values for one cell.

    ``extract`` is a :class:`~repro.analysis.metrics.ScalarMetric`'s
    extraction (or any result → float callable).  Scalars need the full
    result (departure records, counters), so this goes through
    :meth:`ResultStore.get` rather than the cheap series path.
    Returns ``(seed → value, missing seeds)``.
    """
    values: dict[int, float] = {}
    missing: list[int] = []
    for seed in cell.seeds:
        result = store.get(cell.config, cell.method, seed)
        if result is None:
            missing.append(seed)
            continue
        values[seed] = float(extract(result))
    return values, tuple(missing)


def cell_scalar_map(
    store: ResultStore, cell: CellRuns, extracts: dict[str, object]
) -> tuple[dict[str, dict[int, float]], tuple[int, ...]]:
    """Several scalar metrics over one cell, one result load per seed.

    Deserialising a full result is the expensive part; callers that
    want N metrics for the same cell (comparison, departure figures)
    must not pay it N times.  ``extracts`` maps an output key to an
    extraction callable; returns ``(key → seed → value, missing)``.
    """
    values: dict[str, dict[int, float]] = {key: {} for key in extracts}
    missing: list[int] = []
    for seed in cell.seeds:
        result = store.get(cell.config, cell.method, seed)
        if result is None:
            missing.append(seed)
            continue
        for key, extract in extracts.items():
            values[key][seed] = float(extract(result))
    return values, tuple(missing)


def band_payload(band: SeriesBand) -> dict:
    """One band as a JSON-ready dict (full resolution)."""
    return jsonable(
        {
            "scenario": band.scenario,
            "method": band.method,
            "series": band.name,
            "seeds": list(band.seeds),
            "missing_seeds": list(band.missing_seeds),
            "times": band.times,
            "mean": band.mean,
            **{
                f"p{int(round(q * 100)):02d}": band.quantiles[q]
                for q in SUMMARY_QUANTILES
            },
            "ci_halfwidth": band.ci_halfwidth,
        }
    )


def format_band_table(band: SeriesBand, max_rows: int = 24) -> str:
    """A fixed-width rendering of one band, subsampled to ``max_rows``.

    The full grid can run to thousands of samples; the table is a
    terminal surface, so it shows an even subsample (always including
    the first and last sample).  ``--json`` / the figure data export
    carry the full resolution.
    """
    header = (
        f"# {band.scenario} / {band.method} / {band.name}   "
        f"seeds: {len(band.seeds)}"
        + (
            f"   missing: {list(band.missing_seeds)}"
            if band.missing_seeds
            else ""
        )
    )
    if band.times.size == 0:
        return header + "\nno samples (no readable seeds in the store)"
    count = band.times.size
    if count <= max_rows:
        indices = np.arange(count)
    else:
        indices = np.unique(
            np.linspace(0, count - 1, max_rows).round().astype(int)
        )
    quantile_headers = " ".join(
        f"{f'p{int(round(q * 100)):02d}':>10}" for q in SUMMARY_QUANTILES
    )
    lines = [
        header,
        f"{'time':>10} {'mean':>10} {quantile_headers} {'ci95':>10}",
    ]

    def _cell(value: float) -> str:
        # An undefined sample (NaN in every seed) prints `--`, never a
        # raw `nan` — same convention as the sweep summary tables.
        return f"{'--':>10}" if np.isnan(value) else f"{value:>10.4f}"

    for index in indices:
        cells = " ".join(
            _cell(band.quantiles[q][index]) for q in SUMMARY_QUANTILES
        )
        lines.append(
            f"{band.times[index]:>10.2f} {_cell(band.mean[index])} "
            f"{cells} {_cell(band.ci_halfwidth[index])}"
        )
    return "\n".join(lines)
