"""Ablation — Equation 6's dynamic ω versus fixed ω.

DESIGN.md §4: does recomputing ω from live satisfactions (the paper's
equity mechanism) actually matter?  We pin ω to 0 (consumer-only),
0.5 (static balance), and 1 (provider-only) and compare against the
adaptive Equation 6 at a fixed 80 % workload.

Expected: ω = 0 maximises consumer satisfaction at the providers'
expense, ω = 1 the reverse; Equation 6 sits between the extremes on
*both* sides — the balanced regime neither fixed setting delivers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import BENCH_SEEDS, bench_config

from repro.experiments.harness import average_series, run_repeated
from repro.experiments.report import format_curve_table
from repro.simulation.config import WorkloadSpec


def _run_variants():
    base = bench_config().with_workload(WorkloadSpec.fixed(0.8))
    variants = {
        "eq6": base,
        "w0": replace(base, fixed_omega=0.0),
        "w05": replace(base, fixed_omega=0.5),
        "w1": replace(base, fixed_omega=1.0),
    }
    results = {}
    for label, config in variants.items():
        runs = run_repeated(config, "sqlb", BENCH_SEEDS)
        results[label] = {
            "consumer_satisfaction": average_series(
                runs, "consumer_satisfaction_mean"
            )[-1],
            "provider_satisfaction": average_series(
                runs, "provider_intention_satisfaction_mean"
            )[-1],
            "response_time": float(
                np.nanmean([r.response_time_post_warmup for r in runs])
            ),
        }
    return results


def test_ablation_omega(benchmark, report_writer):
    results = benchmark.pedantic(_run_variants, rounds=1, iterations=1)

    labels = list(results)
    report_writer(
        "ablation_omega",
        format_curve_table(
            range(len(labels)),
            {
                metric: [results[label][metric] for label in labels]
                for metric in (
                    "consumer_satisfaction",
                    "provider_satisfaction",
                    "response_time",
                )
            },
            value_label=(
                "Ablation: omega variants " + " / ".join(labels)
            ),
            x_label="variant#",
            x_scale=1.0,
        ),
    )

    # ω = 0 serves consumers better than ω = 1, and vice versa.
    assert (
        results["w0"]["consumer_satisfaction"]
        > results["w1"]["consumer_satisfaction"]
    )
    assert (
        results["w1"]["provider_satisfaction"]
        > results["w0"]["provider_satisfaction"]
    )
    # Equation 6 dominates both extremes' weak side.
    assert (
        results["eq6"]["consumer_satisfaction"]
        > results["w1"]["consumer_satisfaction"]
    )
    assert (
        results["eq6"]["provider_satisfaction"]
        > results["w0"]["provider_satisfaction"]
    )
