"""Figure 4(e) — µ(δas, C): consumer allocation satisfaction.

Paper shape: SQLB is the only method that actively satisfies consumers
(mean above 1); Capacity based and Mariposa-like are neutral (≈ 1)
because they never look at the consumer's intentions.
"""

from __future__ import annotations

from _shape import tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4e_consumer_allocation_satisfaction(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("4e",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4e_consumer_allocation_satisfaction",
        format_figure("4e", payload, "Fig 4(e): µ(δas, C)"),
    )
    family = figure_values("4e", payload)

    sqlb = tail_mean(family["sqlb"])
    capacity = tail_mean(family["capacity"])
    mariposa = tail_mean(family["mariposa"])
    # SQLB works *for* consumers; the baselines are neutral.
    assert sqlb > 1.05
    assert 0.90 < capacity < 1.10
    assert 0.90 < mariposa < 1.10
    # Consumers are never punished by SQLB.
    assert (family["sqlb"] >= 0.99).all()
