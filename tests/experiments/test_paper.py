"""Tests for the paper's figures: their grids, runs and text tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation.registry import PAPER_METHODS
from repro.analysis.figures import available_figures, payload_bytes
from repro.experiments.executor import (
    configure_default_executor,
    set_default_executor,
)
from repro.experiments.paper import (
    PAPER_FIGURES,
    figure_cells,
    figure_values,
    format_figure,
    run_figure,
)
from repro.experiments.store import cache_key
from repro.simulation.config import (
    DepartureRules,
    WorkloadSpec,
    scaled_config,
    tiny_config,
)

TINY = tiny_config(duration=40.0)
WORKLOADS = (0.2, 0.4, 0.6, 0.8, 1.0)


@pytest.fixture(autouse=True)
def _reset_default_executor():
    yield
    set_default_executor(None)


def old_configs(which, base):
    """The configs the per-figure experiment functions built, spelled
    out the way they built them."""
    captive = DepartureRules.captive()
    autonomous = DepartureRules.autonomous(include_overutilization=True)
    starving = DepartureRules.autonomous(include_overutilization=False)
    if which.startswith("4") and which != "4i":
        return [
            base.with_departures(captive).with_workload(
                WorkloadSpec(kind="ramp", start_fraction=0.30, end_fraction=1.00)
            )
        ]
    if which == "table3":
        return [
            base.with_workload(WorkloadSpec.fixed(0.80)).with_departures(
                autonomous
            )
        ]
    rules = {"4i": captive, "5a": starving}.get(which, autonomous)
    return [
        base.with_workload(WorkloadSpec.fixed(w)).with_departures(rules)
        for w in WORKLOADS
    ]


class TestGrids:
    def test_the_ids_are_the_cli_figures_in_order(self):
        assert list(PAPER_FIGURES) == [
            "4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h",
            "4i", "5a", "5b", "5c", "6", "table3",
        ]

    @pytest.mark.parametrize(
        "base", [None, scaled_config(duration=600.0)], ids=["scaled", "bench"]
    )
    def test_every_grid_keys_its_runs_like_the_old_functions(self, base):
        seeds = (11, 23)
        for which in PAPER_FIGURES:
            if base is None:
                cells = figure_cells(which, seeds)
                old = old_configs(which, scaled_config())
            else:
                cells = figure_cells(which, seeds, base)
                old = old_configs(which, base)
            assert [
                cache_key(cell.config, cell.method, seed)
                for cell in cells
                for seed in cell.seeds
            ] == [
                cache_key(config, method, seed)
                for config in old
                for method in PAPER_METHODS
                for seed in seeds
            ], which

    def test_the_catalog_render_keeps_its_seven_figures(self):
        assert available_figures() == (
            "provider_satisfaction",
            "consumer_satisfaction",
            "satisfaction_fairness",
            "utilization",
            "response_time",
            "departures",
            "response_time_delta",
        )


class TestRunFigure:
    def test_seed_order_does_not_change_the_payload(self, tmp_path):
        executor = configure_default_executor(cache_dir=tmp_path)
        for which in ("4a", "table3"):
            forward = run_figure(which, (11, 23), TINY)
            for other in ((23, 11), (11, 23, 11)):
                again = run_figure(which, other, TINY)
                assert payload_bytes(again) == payload_bytes(forward), which
        assert executor.simulations_run == 12

    def test_equal_configs_keep_their_own_store_keys(self, tmp_path):
        executor = configure_default_executor(cache_dir=tmp_path)
        whole = tiny_config(duration=40)
        real = tiny_config(duration=40.0)
        assert whole == real
        run_figure("table3", (11,), whole)
        run_figure("table3", (11,), real)
        assert executor.simulations_run == 6
        for base in (whole, real):
            for cell in figure_cells("table3", (11,), base):
                assert executor.store.contains(cell.config, cell.method, 11)

    def test_a_fresh_executor_on_the_same_store_simulates_nothing(
        self, tmp_path
    ):
        cold = configure_default_executor(cache_dir=tmp_path)
        first = run_figure("4a", (1, 2), TINY)
        assert cold.simulations_run == 6
        warm = configure_default_executor(cache_dir=tmp_path)
        again = run_figure("4a", (1, 2), TINY)
        assert warm.simulations_run == 0
        assert warm.store.hits == 6
        assert payload_bytes(again) == payload_bytes(first)

    def test_the_ramp_series_share_one_family_and_one_time_axis(
        self, tmp_path
    ):
        executor = configure_default_executor(cache_dir=tmp_path)
        for which in ("4a", "4b", "4c", "4d", "4e", "4f", "4g", "4h"):
            payload = run_figure(which, (1,), TINY)
            times = payload["scenarios"]["captive_ramp"]["times"]
            values = figure_values(which, payload)
            assert list(values) == list(PAPER_METHODS)
            for series in values.values():
                assert len(series) == len(times) > 0
        assert executor.simulations_run == len(PAPER_METHODS)

    def test_no_seeds_is_refused(self):
        with pytest.raises(ValueError, match="seed"):
            run_figure("4a", ())


def curve_payload(which, means):
    """A hand-built curve payload: ``means[method]`` per workload."""
    scenario = PAPER_FIGURES[which].scenario
    return {
        "scenarios": {
            f"{scenario}@{w:g}": {
                "method_order": list(means),
                "methods": {m: {"mean": v[i]} for m, v in means.items()},
            }
            for i, w in enumerate(WORKLOADS)
        }
    }


class TestFormatFigure:
    def test_response_time_curves_print_seconds(self):
        payload = curve_payload(
            "4i", {"sqlb": [1.5, 2.0, 2.5, 3.0, None], "capacity": [1.0] * 5}
        )
        values = figure_values("4i", payload)
        assert np.isnan(values["sqlb"][-1])
        lines = format_figure("4i", payload).splitlines()
        assert lines[0] == "# Figure 4(i): response time (s), captive"
        assert lines[2].split() == ["20", "1.50", "1.00"]
        assert lines[-1].split() == ["100", "-", "1.00"]

    def test_departure_curves_print_percentages(self):
        payload = curve_payload("5c", {"sqlb": [0.125, 0.5, 0.0, 1.0, 0.25]})
        lines = format_figure("5c", payload, "provider loss").splitlines()
        assert lines[0] == "# provider loss"
        assert [line.split()[1] for line in lines[2:]] == [
            "12.5", "50.0", "0.0", "100.0", "25.0"
        ]
