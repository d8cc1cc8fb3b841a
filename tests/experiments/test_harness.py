"""Tests for the experiment harness."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.experiments.harness import (
    DEFAULT_SEEDS,
    PAPER_SEEDS,
    average_series,
    run_repeated,
)
from repro.simulation.config import tiny_config


class TestSeedSets:
    def test_paper_seeds_are_nb_repeat_10(self):
        assert len(PAPER_SEEDS) == 10
        assert len(set(PAPER_SEEDS)) == 10

    def test_paper_seeds_extend_the_default_set(self):
        """Paper-strength sweeps must reuse every default-seed run
        already sitting in a store, so the sets must nest."""
        assert PAPER_SEEDS[: len(DEFAULT_SEEDS)] == DEFAULT_SEEDS


class TestRunRepeated:
    def test_one_result_per_seed(self):
        results = run_repeated(tiny_config(duration=40.0), "sqlb", (1, 2))
        assert len(results) == 2
        assert results[0].seed == 1
        assert results[1].seed == 2

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_repeated(tiny_config(), "sqlb", ())


class _StubResult:
    """Just enough of a SimulationResult for average_series."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def series(self, name):
        return self._values


class TestAverageSeries:
    def test_averages_across_repetitions(self):
        results = run_repeated(tiny_config(duration=60.0), "sqlb", (1, 2))
        averaged = average_series(results, "utilization_mean")
        manual = np.nanmean(
            np.vstack([r.series("utilization_mean") for r in results]),
            axis=0,
        )
        assert np.allclose(averaged, manual, equal_nan=True)

    def test_nan_samples_average_over_remaining_repetitions(self):
        results = [
            _StubResult([1.0, np.nan, 3.0]),
            _StubResult([3.0, 4.0, np.nan]),
        ]
        averaged = average_series(results, "any")
        np.testing.assert_array_equal(averaged, [2.0, 4.0, 3.0])

    def test_all_nan_sample_stays_nan_without_warning(self):
        results = [
            _StubResult([np.nan, 1.0]),
            _StubResult([np.nan, 3.0]),
        ]
        with warnings.catch_warnings():
            # Promote the 'Mean of empty slice' RuntimeWarning (and any
            # other) to an error: average_series must stay silent.
            warnings.simplefilter("error")
            averaged = average_series(results, "any")
        assert np.isnan(averaged[0])
        assert averaged[1] == 2.0

    def test_random_inputs_never_leave_observed_range(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            stack = rng.uniform(0.0, 1.0, size=(3, 8))
            stack[rng.uniform(size=stack.shape) < 0.3] = np.nan
            averaged = average_series(
                [_StubResult(row) for row in stack], "any"
            )
            finite = averaged[np.isfinite(averaged)]
            assert (finite >= np.nanmin(stack) - 1e-12).all()
            assert (finite <= np.nanmax(stack) + 1e-12).all()
            all_nan_columns = np.isnan(stack).all(axis=0)
            assert (np.isnan(averaged) == all_nan_columns).all()

