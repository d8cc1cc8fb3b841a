"""Extension bench — the future-work methods vs the paper's three.

Section 7 of the paper sketches two directions this repository
implements: KnBest-style randomised short-lists ([17]) and an economic
SQLB that computes bids from intentions ([10] + Section 5).  This
bench runs all five methods in one environment and reports the
headline trade-offs.

Expected: KnBest (capacity base) stays close to capacity-based response
times while starving fewer providers; economic SQLB behaves like SQLB
on satisfaction (same intentions, routed through prices).
"""

from __future__ import annotations

import numpy as np

from conftest import BENCH_SEEDS, bench_config

from repro.experiments.harness import average_series, run_repeated
from repro.experiments.report import format_curve_table
from repro.simulation.config import WorkloadSpec

METHODS = ("sqlb", "capacity", "mariposa", "knbest", "sqlb_econ")


def _run_all():
    config = bench_config().with_workload(WorkloadSpec.fixed(0.8))
    rows = {}
    for method in METHODS:
        runs = run_repeated(config, method, BENCH_SEEDS)
        starved = float(
            np.mean(
                [(r.final["completed_counts"] == 0).mean() for r in runs]
            )
        )
        rows[method] = {
            "response_time": float(
                np.nanmean([r.response_time_post_warmup for r in runs])
            ),
            "prov_pref_sat": average_series(
                runs, "provider_preference_satisfaction_mean"
            )[-1],
            "cons_alloc_sat": average_series(
                runs, "consumer_allocation_satisfaction_mean"
            )[-1],
            "starved_share": starved,
        }
    return rows


def test_extension_methods(benchmark, report_writer):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    metrics = (
        "response_time",
        "prov_pref_sat",
        "cons_alloc_sat",
        "starved_share",
    )
    report_writer(
        "extensions",
        format_curve_table(
            range(len(METHODS)),
            {m: [rows[method][m] for method in METHODS] for m in metrics},
            value_label=(
                "Extensions at 80% workload -- methods: "
                + " / ".join(METHODS)
            ),
            x_label="method#",
            x_scale=1.0,
        ),
    )

    # KnBest keeps capacity-like response times (within 2×) while
    # starving no more providers than the deterministic ranking.
    assert rows["knbest"]["response_time"] < (
        2.0 * rows["capacity"]["response_time"]
    )
    assert rows["knbest"]["starved_share"] <= (
        rows["capacity"]["starved_share"] + 0.05
    )
    # Economic SQLB inherits SQLB's consumer service (clearly above the
    # baselines' neutral 1.0).
    assert rows["sqlb_econ"]["cons_alloc_sat"] > 1.02
    # And its provider preference satisfaction lands above the
    # preference-blind capacity baseline.
    assert (
        rows["sqlb_econ"]["prov_pref_sat"]
        > rows["capacity"]["prov_pref_sat"]
    )
