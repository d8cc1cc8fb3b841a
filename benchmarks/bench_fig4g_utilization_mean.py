"""Figure 4(g) — µ(Ut, P): mean provider utilisation (query load mean).

Paper shape: Capacity based tracks the offered workload most tightly;
Mariposa-like concentrates load on the most adapted providers and its
mean utilisation runs highest as the ramp approaches 100 %.
"""

from __future__ import annotations

from _shape import tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4g_utilization_mean(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("4g",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4g_utilization_mean",
        format_figure("4g", payload, "Fig 4(g): µ(Ut, P)"),
    )
    family = figure_values("4g", payload)

    capacity = tail_mean(family["capacity"])
    mariposa = tail_mean(family["mariposa"])
    sqlb = tail_mean(family["sqlb"])
    # Mariposa's crude load balancing overshoots the baselines'.
    assert mariposa >= capacity
    assert mariposa >= 0.95 * sqlb
    # Everybody's mean utilisation rises with the ramp.
    for method in family:
        values = family[method]
        assert tail_mean(values) > tail_mean(values[: len(values) // 2])
