"""Integration tests for the mediator simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.config import (
    DepartureRules,
    WorkloadSpec,
    tiny_config,
)
from repro.simulation.engine import MediatorSimulation, run_simulation


@pytest.fixture(scope="module")
def sqlb_result():
    return run_simulation(tiny_config(), "sqlb", seed=7)


class TestCaptiveRun:
    def test_every_issued_query_is_served(self, sqlb_result):
        """Captive participants, universal matchmaker: nothing can be
        unserved (the paper only considers feasible queries)."""
        assert sqlb_result.queries_issued > 100
        assert sqlb_result.queries_served + sqlb_result.queries_unserved == (
            sqlb_result.queries_issued
        )
        assert sqlb_result.queries_unserved == 0

    def test_no_departures_when_captive(self, sqlb_result):
        assert sqlb_result.departures == []
        assert sqlb_result.final["provider_active"].all()
        assert sqlb_result.final["consumer_active"].all()

    def test_response_times_are_positive_and_sane(self, sqlb_result):
        assert sqlb_result.response_time_mean > 0
        # A 130-unit query at the fastest provider takes 1.3 s; nothing
        # can respond faster.
        assert sqlb_result.response_time_mean >= 1.3

    def test_expected_series_are_collected(self, sqlb_result):
        names = set(sqlb_result.collector.names)
        for required in (
            "provider_intention_satisfaction_mean",
            "provider_preference_satisfaction_mean",
            "provider_preference_allocation_satisfaction_mean",
            "provider_intention_satisfaction_fairness",
            "consumer_allocation_satisfaction_mean",
            "consumer_satisfaction_fairness",
            "utilization_mean",
            "utilization_fairness",
            "response_time_mean",
            "workload_fraction",
        ):
            assert required in names

    def test_sampling_grid_matches_interval(self, sqlb_result):
        times = sqlb_result.times()
        config = tiny_config()
        assert times[0] == pytest.approx(config.sample_interval)
        assert np.allclose(np.diff(times), config.sample_interval)
        assert times[-1] <= config.duration

    def test_satisfaction_series_in_range(self, sqlb_result):
        for name in (
            "provider_intention_satisfaction_mean",
            "provider_preference_satisfaction_mean",
            "consumer_satisfaction_mean",
        ):
            series = sqlb_result.series(name)
            finite = series[np.isfinite(series)]
            assert finite.min() >= 0.0
            assert finite.max() <= 1.0

    def test_workload_fraction_ramps(self, sqlb_result):
        fractions = sqlb_result.series("workload_fraction")
        assert fractions[0] < fractions[-1]
        assert fractions[-1] <= 1.0


class TestDeterminism:
    def test_same_seed_reproduces_run_exactly(self):
        config = tiny_config(duration=60.0)
        a = run_simulation(config, "sqlb", seed=13)
        b = run_simulation(config, "sqlb", seed=13)
        assert a.queries_issued == b.queries_issued
        assert a.response_time_mean == b.response_time_mean
        for name in a.collector.names:
            assert np.array_equal(
                a.series(name), b.series(name), equal_nan=True
            )

    def test_different_seeds_differ(self):
        config = tiny_config(duration=60.0)
        a = run_simulation(config, "sqlb", seed=13)
        b = run_simulation(config, "sqlb", seed=14)
        assert a.queries_issued != b.queries_issued or (
            a.response_time_mean != b.response_time_mean
        )

    def test_methods_share_the_environment(self):
        """Given one seed, the environment draws (capacities, classes)
        must be identical across methods — the paper's 'only the
        allocation changes' setup."""
        config = tiny_config(duration=30.0)
        a = MediatorSimulation(config, "sqlb", seed=5)
        b = MediatorSimulation(config, "capacity", seed=5)
        assert np.array_equal(a.capacity.rates, b.capacity.rates)
        assert np.array_equal(
            a.consumer_prefs.matrix, b.consumer_prefs.matrix
        )
        assert np.array_equal(
            a.provider_prefs.adaptation_classes,
            b.provider_prefs.adaptation_classes,
        )


class TestWorkloadScaling:
    def test_higher_workload_issues_more_queries(self):
        low = run_simulation(
            tiny_config(duration=100.0, workload=WorkloadSpec.fixed(0.3)),
            "capacity",
            seed=3,
        )
        high = run_simulation(
            tiny_config(duration=100.0, workload=WorkloadSpec.fixed(0.9)),
            "capacity",
            seed=3,
        )
        assert high.queries_issued > 2 * low.queries_issued

    def test_utilization_tracks_workload(self):
        result = run_simulation(
            tiny_config(duration=200.0, workload=WorkloadSpec.fixed(0.6)),
            "capacity",
            seed=3,
        )
        tail = result.series("utilization_mean")[-3:]
        assert 0.3 < np.nanmean(tail) < 0.9


class TestAutonomousRun:
    def test_departures_are_recorded_and_consistent(self):
        config = tiny_config(
            duration=200.0,
            workload=WorkloadSpec.fixed(0.8),
        ).with_departures(DepartureRules.autonomous(True))
        result = run_simulation(config, "capacity", seed=21)
        provider_departures = [
            d for d in result.departures if d.kind == "provider"
        ]
        # The final activity mask must agree with the departure log.
        inactive = (~result.final["provider_active"]).sum()
        assert inactive == len(provider_departures)
        for record in provider_departures:
            assert record.reason in (
                "dissatisfaction",
                "starvation",
                "overutilization",
            )
            assert 0 <= record.interest_class <= 2
            assert record.time >= config.warmup_time

    def test_fractions_match_counts(self):
        config = tiny_config(
            duration=200.0, workload=WorkloadSpec.fixed(0.8)
        ).with_departures(DepartureRules.autonomous(True))
        result = run_simulation(config, "capacity", seed=21)
        providers = sum(
            1 for d in result.departures if d.kind == "provider"
        )
        assert result.provider_departure_fraction() == pytest.approx(
            providers / config.n_providers
        )


class TestSelectionValidation:
    def test_broken_method_is_rejected(self):
        from repro.allocation.base import AllocationMethod

        class BrokenMethod(AllocationMethod):
            name = "broken"

            def select(self, request):
                return np.array([0, 0])  # duplicates

        config = tiny_config(duration=30.0)
        with pytest.raises(ValueError, match="duplicate|expected"):
            run_simulation(config, BrokenMethod(), seed=1)

    @staticmethod
    def _returning(selection):
        from repro.allocation.base import AllocationMethod

        class FixedMethod(AllocationMethod):
            name = "fixed_selection"

            def select(self, request):
                return selection

        return FixedMethod()

    @pytest.mark.parametrize(
        "selection",
        [
            np.array([1.9]),  # a cast would serve position 1
            np.array([1.0]),
            np.array([True]),  # a cast would serve position 1
            np.array([[1]]),
            np.array(1),
            1,
        ],
        ids=["float", "integral-float", "bool", "2-d", "0-d", "int"],
    )
    def test_selection_must_be_1d_integer_positions(self, selection):
        with pytest.raises(
            ValueError,
            match="method 'fixed_selection' must return a 1-D integer array",
        ):
            run_simulation(
                tiny_config(duration=5.0), self._returning(selection), seed=1
            )

    @pytest.mark.parametrize("selection", [np.array([]), []])
    def test_empty_selection_keeps_the_size_error(self, selection):
        with pytest.raises(
            ValueError,
            match="method 'fixed_selection' selected 0 providers .* expected 1",
        ):
            run_simulation(
                tiny_config(duration=5.0), self._returning(selection), seed=1
            )

    @pytest.mark.parametrize(
        "selection",
        [[1], np.array([1], dtype=np.int32), np.array([1], dtype=np.uint8)],
        ids=["list", "int32", "uint8"],
    )
    def test_any_integer_selection_is_served(self, selection):
        expected = run_simulation(
            tiny_config(duration=5.0), self._returning(np.array([1])), seed=1
        )
        result = run_simulation(
            tiny_config(duration=5.0), self._returning(selection), seed=1
        )
        assert result.queries_served == expected.queries_served > 0
        assert result.response_time_mean == expected.response_time_mean
        for name, values in expected.final.items():
            assert np.array_equal(result.final[name], values), name
