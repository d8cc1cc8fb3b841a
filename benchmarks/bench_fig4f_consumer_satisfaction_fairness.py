"""Figure 4(f) — f(δs, C): consumer satisfaction fairness.

Paper shape: consumer fairness is high and stable for every method —
consumers are not in direct competition for queries, so their
satisfaction varies much less than the providers'.
"""

from __future__ import annotations

import numpy as np

from _shape import tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4f_consumer_satisfaction_fairness(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("4f",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4f_consumer_satisfaction_fairness",
        format_figure("4f", payload, "Fig 4(f): f(δs, C)"),
    )
    family = figure_values("4f", payload)
    # The provider-side fairness of the same runs (Fig 4(d)).
    provider = figure_values(
        "4d", run_figure("4d", seeds=BENCH_SEEDS, base=ramp_config())
    )

    for method in family:
        values = family[method]
        assert tail_mean(values) > 0.85
        # Less variation than the provider-side fairness (Fig 4(d)).
        assert np.nanstd(values) <= np.nanstd(provider[method]) + 0.05
