"""Figure 6 — % of consumer departures by dissatisfaction vs workload.

Paper shape: SQLB is "a clear winner with no consumer departures";
both baselines lose more than 20 % of consumers at every workload.
"""

from __future__ import annotations

import numpy as np

from conftest import BENCH_SEEDS, bench_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig6_consumer_departures(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("6",),
        kwargs={"seeds": BENCH_SEEDS, "base": bench_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig6_consumer_departures",
        format_figure("6", payload, "Fig 6: consumer departures (%)"),
    )
    curve = figure_values("6", payload)

    # SQLB: no consumer departures at any workload.
    assert (curve["sqlb"] == 0.0).all()
    # The baselines punish consumers and lose a substantial share.
    assert float(np.mean(curve["capacity"])) > 0.20
    assert float(np.mean(curve["mariposa"])) > 0.20
