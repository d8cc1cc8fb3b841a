"""Ablation — Definition 8's satisfaction-driven trade-off.

DESIGN.md §4: a provider balances preference against utilisation *by
its own satisfaction*.  We pin that satisfaction to 0 (pure preference
chasing) and 1 (pure load shedding) and compare with the live adaptive
value at a fixed 80 % workload.

Expected: pure preference chasing wrecks load balance (queries pile on
the adapted providers → higher response times); pure load shedding
wrecks preference-based satisfaction; the adaptive rule holds both.
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
        "adaptive": base,
        "pref_only": replace(base, fixed_provider_satisfaction=0.0),
        "load_only": replace(base, fixed_provider_satisfaction=1.0),
    }
    results = {}
    for label, config in variants.items():
        runs = run_repeated(config, "sqlb", BENCH_SEEDS)
        results[label] = {
            "pref_satisfaction": average_series(
                runs, "provider_preference_satisfaction_mean"
            )[-1],
            "response_time": float(
                np.nanmean([r.response_time_post_warmup for r in runs])
            ),
            "utilization_fairness": average_series(
                runs, "utilization_fairness"
            )[-1],
        }
    return results


def test_ablation_provider_intention(benchmark, report_writer):
    results = benchmark.pedantic(_run_variants, rounds=1, iterations=1)

    labels = list(results)
    report_writer(
        "ablation_provider_intention",
        format_curve_table(
            range(len(labels)),
            {
                metric: [results[label][metric] for label in labels]
                for metric in (
                    "pref_satisfaction",
                    "response_time",
                    "utilization_fairness",
                )
            },
            value_label=(
                "Ablation: Definition 8 variants " + " / ".join(labels)
            ),
            x_label="variant#",
            x_scale=1.0,
        ),
    )

    # Chasing preferences only costs response time vs load-only.
    assert (
        results["pref_only"]["response_time"]
        > results["load_only"]["response_time"]
    )
    # Shedding load only costs preference satisfaction.
    assert (
        results["pref_only"]["pref_satisfaction"]
        > results["load_only"]["pref_satisfaction"]
    )
    # The adaptive rule keeps preference satisfaction near the
    # preference-chasing variant at a lower response-time cost.
    assert (
        results["adaptive"]["pref_satisfaction"]
        > results["load_only"]["pref_satisfaction"]
    )
    assert (
        results["adaptive"]["response_time"]
        < results["pref_only"]["response_time"]
    )
