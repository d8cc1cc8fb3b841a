"""Figure 4(h) — f(Ut, P): utilisation fairness (query load balance).

Paper shape: Capacity based is the fairest balancer throughout; SQLB
struggles at low workloads (it follows intentions when there is slack)
but adapts and becomes fairer as the workload grows.
"""

from __future__ import annotations

from _shape import head_mean, tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4h_utilization_fairness(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("4h",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4h_utilization_fairness",
        format_figure("4h", payload, "Fig 4(h): f(Ut, P)"),
    )
    family = figure_values("4h", payload)

    sqlb = family["sqlb"]
    capacity = family["capacity"]
    # Capacity based balances load at least as fairly as SQLB.
    assert tail_mean(capacity) >= tail_mean(sqlb) - 0.05
    # SQLB's self-adaptation: fairness improves as the workload ramps.
    assert tail_mean(sqlb) > head_mean(sqlb) - 0.05
