"""Figure 5(b) — response time vs workload; providers may leave by
dissatisfaction, starvation, *or* overutilisation.

Paper shape: with all departure reasons enabled, SQLB and Mariposa-like
degrade only mildly versus their captive response times while Capacity
based suffers most from its provider exodus.  Our scaled reproduction
preserves SQLB's mild degradation and its advantage over Mariposa-like
(see EXPERIMENTS.md for the capacity-based deviation).
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


def test_fig5b_response_time_all_reasons(benchmark, report_writer):
    payload = benchmark.pedantic(
        run_figure,
        args=("5b",),
        kwargs={"seeds": BENCH_SEEDS, "base": bench_config()},
        rounds=1,
        iterations=1,
    )
    report_writer(
        "fig5b_response_time_all_reasons",
        format_figure(
            "5b",
            payload,
            "Fig 5(b): response time (s), all departure reasons",
        ),
    )
    curve = figure_values("5b", payload)

    sqlb = curve["sqlb"]
    mariposa = curve["mariposa"]
    # SQLB beats Mariposa-like across the mid-range workloads (see the
    # Figure 5(a) bench and EXPERIMENTS.md for the saturation caveat).
    mid = [i for i, w in enumerate(PAPER_WORKLOADS) if 0.3 <= w <= 0.9]
    assert sqlb[mid].mean() < mariposa[mid].mean()

    # SQLB's degradation versus its own captive runs (Figure 4(i)) stays
    # bounded over the mid-range (the paper reports a factor of about 1.4).
    captive = figure_values(
        "4i", run_figure("4i", seeds=BENCH_SEEDS, base=bench_config())
    )
    degradation = float(np.mean(sqlb[mid] / captive["sqlb"][mid]))
    assert degradation < 2.5
