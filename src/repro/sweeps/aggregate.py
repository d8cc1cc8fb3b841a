"""Cross-shard aggregation: store merging and summary tables.

Two halves:

* :func:`merge_stores` — pull the result entries (and manifests) of any
  number of source store directories into one destination.  Entries are
  content-addressed (SHA-256 over config + method + seed + engine
  version), so merging is a plain union: same key ⇒ same bytes, and
  whichever copy arrives first wins.  This is how a sweep sharded over
  several machines becomes one local store to report from.
* :func:`sweep_summary` / :func:`format_sweep_table` — the per
  (scenario, method) summary of a sweep: *means and quantiles* across
  the repetition seeds, not just means (a method that is fast on
  average but terrible at p90 is exactly what distributional reporting
  exists to catch).  Results are read through the executor, so a
  fully warm store yields a report with zero new simulations.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import warnings
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.experiments.executor import ExperimentExecutor
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationResult
from repro.sweeps.runner import SweepRunner, manifest_directory
from repro.sweeps.spec import SweepSpec

__all__ = [
    "CI_Z",
    "MergeReport",
    "ScenarioMethodSummary",
    "SUMMARY_QUANTILES",
    "ci_halfwidth",
    "format_sweep_table",
    "merge_stores",
    "summarize_cell",
    "sweep_summary",
]

#: The quantiles summary rows report across the repetition seeds.
#: Shared with the analysis layer's per-sample series bands, so a
#: band's p50/p90 and a summary row's p50/p90 always mean the same
#: thing.
SUMMARY_QUANTILES = (0.5, 0.9)

#: Normal-approximation z for the 95 % confidence intervals the
#: summary, the adaptive seeding controller, and the analysis layer's
#: series bands all report.  One constant, one definition of "CI".
CI_Z = 1.96


def ci_halfwidth(values: Sequence[float]) -> float:
    """95 % confidence-interval half-width of a mean across seeds.

    Normal approximation: ``z * s / sqrt(n)`` with the sample standard
    deviation (``ddof=1``).  NaN inputs are dropped; with fewer than
    two usable values the half-width is *undefined* and NaN is
    returned — callers must treat that as "no statement", not as zero
    (a single seed is never evidence of convergence).
    """
    usable = np.asarray(
        [v for v in values if not math.isnan(v)], dtype=float
    )
    if usable.size < 2:
        return float("nan")
    return float(
        CI_Z * usable.std(ddof=1) / math.sqrt(usable.size)
    )


@dataclasses.dataclass(frozen=True)
class MergeReport:
    """What one merge did, per destination."""

    destination: Path
    entries_copied: int
    entries_skipped: int
    manifests_copied: int
    manifests_skipped: int


def _merge_pairs(source: Path, destination: Path) -> tuple[int, int]:
    """Copy complete ``<key>.json`` + ``<key>.npz`` pairs; returns
    (copied, skipped).  Incomplete pairs (a crashed writer) are ignored."""
    copied = skipped = 0
    if not source.is_dir():
        return copied, skipped
    for meta in sorted(source.glob("*.json")):
        npz = meta.with_suffix(".npz")
        if not npz.is_file():
            continue
        target_meta = destination / meta.name
        target_npz = destination / npz.name
        if target_meta.is_file() and target_npz.is_file():
            skipped += 1
            continue
        destination.mkdir(parents=True, exist_ok=True)
        # npz first: a reader treats a json without its npz as a miss,
        # never the other way around.
        shutil.copy2(npz, target_npz)
        shutil.copy2(meta, target_meta)
        copied += 1
    return copied, skipped


def merge_stores(
    sources: Sequence[Path | str], destination: Path | str
) -> MergeReport:
    """Union the entries and manifests of ``sources`` into ``destination``.

    Entries are content-addressed, so identical keys hold identical
    payloads and existing destination entries are simply kept.  A source
    equal to the destination is skipped (merging a store into itself is
    a no-op, not an error).
    """
    destination = Path(destination)
    missing = [str(s) for s in sources if not Path(s).is_dir()]
    if missing:
        # A typo'd machine path must fail loudly, not merge an "empty
        # store" and leave the report to quietly re-simulate the gap.
        raise FileNotFoundError(
            f"merge sources do not exist: {', '.join(missing)}"
        )
    entries_copied = entries_skipped = 0
    manifests_copied = manifests_skipped = 0
    for source in sources:
        source = Path(source)
        if source.resolve() == destination.resolve():
            continue
        copied, skipped = _merge_pairs(source, destination)
        entries_copied += copied
        entries_skipped += skipped

        source_manifests = manifest_directory(source)
        if source_manifests.is_dir():
            target_dir = manifest_directory(destination)
            for manifest in sorted(source_manifests.glob("*.json")):
                target = target_dir / manifest.name
                if target.is_file():
                    manifests_skipped += 1
                    continue
                target_dir.mkdir(parents=True, exist_ok=True)
                shutil.copy2(manifest, target)
                manifests_copied += 1
    return MergeReport(
        destination=destination,
        entries_copied=entries_copied,
        entries_skipped=entries_skipped,
        manifests_copied=manifests_copied,
        manifests_skipped=manifests_skipped,
    )


@dataclasses.dataclass(frozen=True)
class ScenarioMethodSummary:
    """Across-seed distributional summary of one sweep cell.

    Response-time quantiles are over the per-seed post-warmup means;
    departure fractions are across-seed means (in [0, 1]); satisfaction
    is the across-seed mean of the final provider intention-based
    satisfaction sample.  ``response_time_ci_halfwidth`` is the 95 % CI
    half-width across seeds — NaN (rendered ``--``) when fewer than two
    seeds make it undefined.
    """

    scenario: str
    method: str
    seeds: int
    response_time_mean: float
    response_time_quantiles: dict[float, float]
    response_time_ci_halfwidth: float
    provider_departure_fraction: float
    consumer_departure_fraction: float
    provider_satisfaction: float


def summarize_cell(
    scenario: str, method: str, results: Sequence[SimulationResult]
) -> ScenarioMethodSummary:
    """Distributional summary of one (scenario, method) cell.

    Single-seed cells are first-class: quantiles degenerate to the one
    value, the CI half-width is NaN (undefined, not zero), and no
    runtime warnings escape — an all-NaN metric (e.g. a run with no
    post-warmup queries) is an expected outcome, not an accident.
    """
    per_seed = np.asarray([r.response_time_post_warmup for r in results])
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "All-NaN slice encountered", RuntimeWarning
        )
        warnings.filterwarnings(
            "ignore", "Mean of empty slice", RuntimeWarning
        )
        quantiles = {
            q: float(np.nanquantile(per_seed, q)) for q in SUMMARY_QUANTILES
        }
        final_satisfaction = float(
            np.nanmean(
                [
                    r.series("provider_intention_satisfaction_mean")[-1]
                    for r in results
                ]
            )
        )
        response_time_mean = float(np.nanmean(per_seed))
    return ScenarioMethodSummary(
        scenario=scenario,
        method=method,
        seeds=len(results),
        response_time_mean=response_time_mean,
        response_time_quantiles=quantiles,
        response_time_ci_halfwidth=ci_halfwidth(per_seed.tolist()),
        provider_departure_fraction=float(
            np.mean([r.provider_departure_fraction() for r in results])
        ),
        consumer_departure_fraction=float(
            np.mean([r.consumer_departure_fraction() for r in results])
        ),
        provider_satisfaction=final_satisfaction,
    )


def sweep_summary(
    spec: SweepSpec,
    executor: ExperimentExecutor | None = None,
    base: SimulationConfig | None = None,
) -> list[ScenarioMethodSummary]:
    """Per (scenario, method) summaries for a whole sweep.

    Results come through the executor, so a store populated by earlier
    shard runs — local or merged from other machines — satisfies the
    whole report without a single new simulation; missing cells are
    simulated transparently (run ``sweep status`` first to see whether
    the store is complete).
    """
    runner = SweepRunner(executor)
    run_executor = runner.executor
    jobs = spec.expand(base)
    results = run_executor.run([sj.job for sj in jobs])
    by_cell: dict[tuple[str, str], list] = {}
    for sweep_job, result in zip(jobs, results):
        by_cell.setdefault((sweep_job.scenario, sweep_job.method), []).append(
            result
        )
    summaries = []
    for scenario in spec.scenarios:
        for method in spec.methods:
            summaries.append(
                summarize_cell(scenario, method, by_cell[(scenario, method)])
            )
    return summaries


def format_sweep_table(summaries: Sequence[ScenarioMethodSummary]) -> str:
    """Fixed-width table: one row per (scenario, method).

    The CI column prints ``--`` when the half-width is undefined (a
    single-seed cell), never ``nan``.
    """
    quantile_headers = [
        f"rt_p{int(round(q * 100)):02d}(s)" for q in SUMMARY_QUANTILES
    ]
    header = (
        f"{'scenario':<30} {'method':<10} {'seeds':>5} {'rt_mean(s)':>10} "
        + " ".join(f"{h:>10}" for h in quantile_headers)
        + f" {'rt_ci95(s)':>10}"
        + f" {'prov_dep%':>9} {'cons_dep%':>9} {'prov_sat':>8}"
    )
    lines = ["# sweep summary (means and quantiles across seeds)", header]
    for row in summaries:
        quantile_cells = " ".join(
            f"{row.response_time_quantiles[q]:>10.2f}"
            for q in SUMMARY_QUANTILES
        )
        ci = row.response_time_ci_halfwidth
        ci_cell = f"{'--':>10}" if math.isnan(ci) else f"{ci:>10.2f}"
        lines.append(
            f"{row.scenario:<30} {row.method:<10} {row.seeds:>5} "
            f"{row.response_time_mean:>10.2f} {quantile_cells} "
            f"{ci_cell} "
            f"{100.0 * row.provider_departure_fraction:>9.1f} "
            f"{100.0 * row.consumer_departure_fraction:>9.1f} "
            f"{row.provider_satisfaction:>8.3f}"
        )
    return "\n".join(lines)
