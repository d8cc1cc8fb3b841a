"""Tests for the sliding-window utilisation tracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.utilization import UtilizationTracker


def make_tracker(capacities=(100.0, 50.0), window=10.0, bins=5):
    return UtilizationTracker(np.asarray(capacities), window, bins)


class TestUtilizationTracker:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_tracker(window=0.0)
        with pytest.raises(ValueError):
            make_tracker(bins=0)
        with pytest.raises(ValueError):
            make_tracker(capacities=(0.0,))
        with pytest.raises(ValueError):
            UtilizationTracker(np.zeros((2, 2)) + 1, 10.0, 5)

    def test_starts_idle(self):
        tracker = make_tracker()
        assert tracker.utilization().tolist() == [0.0, 0.0]

    def test_paper_anchor_proportional_assignment(self):
        """At X % workload, proportional assignment gives Ut = X/100."""
        tracker = make_tracker(capacities=(100.0, 50.0), window=10.0)
        # 80 % of each provider's capacity over the full window.
        tracker.assign(np.array([0]), 0.8 * 100.0 * 10.0)
        tracker.assign(np.array([1]), 0.8 * 50.0 * 10.0)
        assert tracker.utilization().tolist() == pytest.approx([0.8, 0.8])

    def test_can_exceed_one_under_overload(self):
        tracker = make_tracker()
        tracker.assign(np.array([0]), 3000.0)  # 3 windows' worth
        assert tracker.utilization()[0] == pytest.approx(3.0)

    def test_work_ages_out_after_window(self):
        tracker = make_tracker(window=10.0, bins=5)
        tracker.assign(np.array([0]), 500.0)
        tracker.advance(10.0 + 2.0)  # beyond the full window
        assert tracker.utilization()[0] == 0.0

    def test_partial_ageing_drops_only_old_bins(self):
        tracker = make_tracker(window=10.0, bins=5)
        tracker.assign(np.array([0]), 500.0)  # lands in bin 0
        tracker.advance(4.0)  # two bins later; work still in window
        assert tracker.utilization()[0] == pytest.approx(0.5)
        tracker.advance(9.9)  # still inside the window
        assert tracker.utilization()[0] == pytest.approx(0.5)
        tracker.advance(12.1)  # now beyond it
        assert tracker.utilization()[0] == 0.0

    def test_time_cannot_go_backwards(self):
        tracker = make_tracker()
        tracker.advance(5.0)
        with pytest.raises(ValueError):
            tracker.advance(1.0)

    def test_duplicate_providers_accumulate(self):
        tracker = make_tracker()
        tracker.assign(np.array([0, 0]), 100.0)
        assert tracker.utilization()[0] == pytest.approx(0.2)

    def test_single_int_provider_matches_the_array_form(self):
        scalar = make_tracker(capacities=(100.0, 50.0))
        vector = make_tracker(capacities=(100.0, 50.0))
        for provider, units in ((1, 130.0), (0, 70.0), (1, 40.0)):
            scalar.assign(provider, units, assume_unique=True)
            vector.assign(np.array([provider]), units, assume_unique=True)
        assert np.array_equal(scalar.utilization(), vector.utilization())

    def test_utilization_of_subset(self):
        tracker = make_tracker(capacities=(100.0, 50.0, 25.0))
        tracker.assign(np.array([2]), 125.0)
        subset = tracker.utilization_of(np.array([2, 0]))
        assert subset.tolist() == pytest.approx([0.5, 0.0])

    def test_reset_clears_work(self):
        tracker = make_tracker()
        tracker.assign(np.array([0]), 100.0)
        tracker.reset()
        assert tracker.utilization()[0] == 0.0

    def test_sliding_window_statistics_match_bruteforce(self):
        """Property-style check against an explicit event list."""
        rng = np.random.default_rng(9)
        tracker = make_tracker(capacities=(40.0,), window=8.0, bins=4)
        events = []
        time = 0.0
        for _ in range(300):
            time += rng.exponential(0.3)
            units = rng.uniform(1.0, 30.0)
            tracker.advance(time)
            tracker.assign(np.array([0]), units)
            events.append((time, units))
            # Brute force: bins quantise time.  An event is retained iff
            # the bin it landed in (the grid-aligned floor of its
            # timestamp) is one of the last `bins` bins.
            width = 8.0 / 4
            cutoff = tracker._bin_start - 8.0 + width
            expected = sum(
                u
                for t, u in events
                if np.floor(t / width) * width >= cutoff - 1e-9
            )
            assert tracker.utilization()[0] == pytest.approx(
                expected / (40.0 * 8.0), abs=1e-9
            )
