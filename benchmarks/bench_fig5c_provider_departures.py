"""Figure 5(c) — % of provider departures vs workload (all reasons).

Paper shape: the baselines lose most of their providers at nearly every
workload, while SQLB loses only a modest fraction (≈28 % on average in
the paper) — it keeps the participants the system needs.
"""

from __future__ import annotations

import numpy as np

from conftest import BENCH_SEEDS, bench_config

from repro.experiments.paper import (
    PAPER_WORKLOADS,
    figure_values,
    format_figure,
    run_figure,
)


def test_fig5c_provider_departures(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("5c",),
        kwargs={"seeds": BENCH_SEEDS, "base": bench_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig5c_provider_departures",
        format_figure("5c", payload, "Fig 5(c): provider departures (%)"),
    )
    curve = figure_values("5c", payload)

    sqlb = curve["sqlb"]
    capacity = curve["capacity"]
    mariposa = curve["mariposa"]
    # SQLB retains more providers than either baseline across the
    # mid-range workloads.  (At the extremes our scaled reproduction
    # deviates: SQLB's preference concentration also bleeds providers
    # at 20 % and at full saturation — see EXPERIMENTS.md.)
    mid = [i for i, w in enumerate(PAPER_WORKLOADS) if 0.3 <= w <= 0.9]
    assert (sqlb[mid] <= capacity[mid] + 1e-9).all()
    assert (sqlb[mid] <= mariposa[mid] + 1e-9).all()
    # Averages over the mid-range: SQLB moderate, baselines heavy
    # (paper: 28 % vs almost all).
    assert float(np.mean(sqlb[mid])) < 0.50
    assert float(np.mean(capacity[mid])) > 0.45
    assert float(np.mean(mariposa[mid])) > 0.45
