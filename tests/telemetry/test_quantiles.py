"""The one telemetry quantile rule and the log-bucket histogram.

Every quantile is the linear ("inclusive") quantile of the union of
the observations; a timer's histogram reads it to within half a
bucket, and timers split across processes merge to the whole.
"""

from __future__ import annotations

import json
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.quantiles import (
    QUANTILE_FIELDS,
    SUB_BUCKETS,
    bucket_key,
    histogram_quantiles,
    inclusive_quantile,
)
from repro.telemetry.registry import TimerStats
from repro.telemetry.report import aggregate_events

#: Non-negative durations, zero and subnormals included.
durations = st.floats(min_value=0.0, max_value=1e6)


def timer_of(values) -> TimerStats:
    timer = TimerStats()
    for value in values:
        timer.observe(value)
    return timer


def snapshot_event(pid: int, timer: TimerStats) -> dict:
    return {
        "kind": "snapshot",
        "pid": pid,
        "attrs": {"timers": {"job_s": timer.snapshot()}},
    }


class TestBuckets:
    def test_zero_has_its_own_bucket_below_every_positive_value(self):
        assert bucket_key(0.0) == 0
        assert bucket_key(math.ulp(0.0)) > 0

    @given(first=durations, second=durations)
    def test_keys_sort_as_values_do(self, first, second):
        low, high = sorted((first, second))
        assert bucket_key(low) <= bucket_key(high)

    @given(value=durations)
    def test_midpoint_is_within_half_a_bucket(self, value):
        [midpoint] = set(
            histogram_quantiles({bucket_key(value): 1}, 0.0, math.inf)
            .values()
        )
        assert abs(midpoint - value) <= value / (2 * SUB_BUCKETS)


class TestInclusiveRule:
    @given(values=st.lists(durations, min_size=2, max_size=300))
    def test_matches_statistics_inclusive(self, values):
        ranked = sorted(values)
        cut_points = statistics.quantiles(values, n=100, method="inclusive")
        for _, q in QUANTILE_FIELDS:
            exact = cut_points[round(q * 100) - 1]
            got = inclusive_quantile(ranked.__getitem__, len(ranked), q)
            assert got == pytest.approx(
                exact, rel=1e-9, abs=1e-12 * ranked[-1]
            )

    def test_empty_is_nan(self):
        assert math.isnan(inclusive_quantile([].__getitem__, 0, 0.5))


class TestHistogramQuantiles:
    """The four properties of the one rule on a timer's histogram."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(durations, min_size=1, max_size=200),
        cuts=st.lists(st.integers(0, 200), max_size=4),
    )
    def test_split_stream_merges_to_the_whole(self, values, cuts):
        whole = timer_of(values)
        bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
        parts = [
            timer_of(values[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        ]
        merged = TimerStats()
        for part in parts:
            merged.merge(part.snapshot())
        assert merged.buckets == whole.buckets
        expected = whole.snapshot()
        merged_snapshot = merged.snapshot()
        report = aggregate_events(
            [snapshot_event(pid, part) for pid, part in enumerate(parts)]
        )["timers"]["job_s"]
        for field, _ in QUANTILE_FIELDS:
            assert merged_snapshot[field] == expected[field]
            assert report[field] == expected[field]

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(durations, min_size=2, max_size=300))
    def test_within_one_bucket_of_the_inclusive_quantile(self, values):
        snapshot = timer_of(values).snapshot()
        cut_points = statistics.quantiles(values, n=100, method="inclusive")
        # Slack for where float positions land at an integer rank.
        slack = 1e-12 * max(values)
        for field, q in QUANTILE_FIELDS:
            exact = cut_points[round(q * 100) - 1]
            assert abs(snapshot[field] - exact) <= (
                exact / SUB_BUCKETS + slack
            )

    @given(value=durations, copies=st.integers(1, 20))
    def test_a_single_value_reads_back_exactly(self, value, copies):
        snapshot = timer_of([value] * copies).snapshot()
        for field, _ in QUANTILE_FIELDS:
            assert snapshot[field] == value

    def test_empty_timer_is_nan(self):
        snapshot = TimerStats().snapshot()
        assert snapshot["buckets"] == []
        for field, _ in QUANTILE_FIELDS:
            assert math.isnan(snapshot[field])


class TestLongStreams:
    """A run's timer sees thousands of observations, not hundreds."""

    @pytest.mark.parametrize("field, q", QUANTILE_FIELDS)
    def test_lognormal_stream(self, field, q):
        rng = random.Random(42)
        values = [rng.lognormvariate(-5.0, 1.0) for _ in range(20_000)]
        snapshot = timer_of(values).snapshot()
        exact = inclusive_quantile(sorted(values).__getitem__, len(values), q)
        assert abs(snapshot[field] - exact) <= exact / SUB_BUCKETS

    def test_count_tracks_observations(self):
        snapshot = timer_of(float(value) for value in range(17)).snapshot()
        assert snapshot["count"] == 17
        assert sum(count for _, count in snapshot["buckets"]) == 17

    def test_snapshot_survives_a_json_round_trip(self):
        """Events files are JSON: bucket keys must come back as ints."""
        rng = random.Random(7)
        timer = timer_of(rng.expovariate(1.0) for _ in range(1_000))
        merged = TimerStats()
        merged.merge(json.loads(json.dumps(timer.snapshot())))
        assert merged.buckets == timer.buckets
        assert merged.snapshot() == timer.snapshot()
