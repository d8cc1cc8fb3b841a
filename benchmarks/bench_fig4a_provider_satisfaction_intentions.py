"""Figure 4(a) — µ(δs, P) based on intentions, captive 30→100 % ramp.

Paper shape: providers are most satisfied under SQLB; the baselines
ignore intentions and sit lower from the start; SQLB's curve decreases
as the workload ramps (loaded providers' intentions turn negative).
"""

from __future__ import annotations

from _shape import tail_mean
from conftest import BENCH_SEEDS, ramp_config

from repro.experiments.paper import figure_values, format_figure, run_figure


def test_fig4a_provider_satisfaction_mean_intentions(
    benchmark, report_writer
):
    payload = benchmark.pedantic(
        run_figure,
        args=("4a",),
        kwargs={"seeds": BENCH_SEEDS, "base": ramp_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig4a_provider_satisfaction_intentions",
        format_figure("4a", payload, "Fig 4(a): µ(δs, P), intention-based"),
    )
    family = figure_values("4a", payload)

    sqlb = family["sqlb"]
    capacity = family["capacity"]
    mariposa = family["mariposa"]
    # SQLB satisfies provider intentions best (the paper's headline for
    # this figure).  The paper additionally shows SQLB *declining* from
    # a high initial value as the ramp loads providers; our scaled run
    # starts from a colder transient instead — see EXPERIMENTS.md.
    assert tail_mean(sqlb) > tail_mean(capacity)
    assert tail_mean(sqlb) > tail_mean(mariposa)
    # At high workload nobody satisfies intentions fully: utilisation
    # drags them down (the paper's explanation for the late-run dip).
    assert tail_mean(sqlb) < 0.8
