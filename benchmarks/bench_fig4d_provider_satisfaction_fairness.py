"""Figure 4(d) — f(δs, P): provider satisfaction fairness.

Paper shape: all three methods guarantee roughly the same satisfaction
fairness (which, the paper stresses, does *not* mean providers are
equally satisfied — see Figures 4(a)-(c)).
"""

from __future__ import annotations

import itertools

from _shape import tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4d_provider_satisfaction_fairness(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("4d",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4d_provider_satisfaction_fairness",
        format_figure("4d", payload, "Fig 4(d): f(δs, P)"),
    )
    family = figure_values("4d", payload)

    tails = {
        method: tail_mean(family[method])
        for method in family
    }
    for value in tails.values():
        assert 0.0 < value <= 1.0
    # "Almost the same satisfaction fairness" across methods.
    for a, b in itertools.combinations(tails.values(), 2):
        assert abs(a - b) < 0.40
