"""Figure 4(c) — µ(δas, P) based on preferences.

Paper shape: Capacity based is the only method that *punishes*
providers (mean allocation satisfaction below 1); SQLB and
Mariposa-like work for them (at or above 1).
"""

from __future__ import annotations

from _shape import tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4c_provider_allocation_satisfaction(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("4c",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4c_provider_allocation_satisfaction",
        format_figure("4c", payload, "Fig 4(c): µ(δas, P), preference-based"),
    )
    family = figure_values("4c", payload)

    sqlb = tail_mean(family["sqlb"])
    capacity = tail_mean(family["capacity"])
    mariposa = tail_mean(family["mariposa"])
    # Capacity based punishes providers...
    assert capacity < 0.95
    # ...while the intention-aware methods do not.
    assert sqlb > capacity
    assert mariposa > capacity
    assert sqlb >= 0.97
