"""Tests for the consumer characterisation (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.consumer_profile import (
    ConsumerProfile,
    query_adequation,
    query_satisfaction,
)

intention_lists = st.lists(
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    min_size=1,
    max_size=20,
)


class TestQueryAdequation:
    def test_rescales_mean_intention(self):
        # Intentions (1, 0, -1) average to 0 → adequation 0.5.
        assert query_adequation([1.0, 0.0, -1.0]) == pytest.approx(0.5)

    def test_all_negative_intentions_give_zero(self):
        assert query_adequation([-1.0, -1.0]) == 0.0

    def test_rejects_empty_candidate_set(self):
        with pytest.raises(ValueError):
            query_adequation([])

    @given(intention_lists)
    def test_bounds(self, intentions):
        assert 0.0 <= query_adequation(intentions) <= 1.0

    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=1,
            max_size=500,  # past numpy's pairwise-summation blocks
        )
    )
    def test_equals_the_ndarray_mean_form_bitwise(self, intentions):
        values = np.array(intentions)
        assert query_adequation(values) == (float(values.mean()) + 1.0) / 2.0


class TestQuerySatisfaction:
    def test_full_satisfaction_from_single_perfect_provider(self):
        """The paper's eWine example: one provider with intention 1 and
        q.n = 1 gives satisfaction 1 even without the 2nd result."""
        assert query_satisfaction([1.0], n_desired=1) == pytest.approx(1.0)

    def test_missing_results_dilute_satisfaction(self):
        # Same single intention-1 provider but two results desired.
        assert query_satisfaction([1.0], n_desired=2) == pytest.approx(0.75)

    def test_empty_selection_is_neutral(self):
        assert query_satisfaction([], n_desired=1) == pytest.approx(0.5)

    def test_rejects_more_selected_than_desired(self):
        with pytest.raises(ValueError):
            query_satisfaction([0.5, 0.5], n_desired=1)

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError):
            query_satisfaction([0.5], n_desired=0)

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.integers(min_value=1, max_value=25),
    )
    def test_lone_float_is_a_one_provider_selection(self, intention, n_desired):
        assert query_satisfaction(intention, n_desired) == query_satisfaction(
            [intention], n_desired
        )

    @given(
        intention_lists,
        st.integers(min_value=1, max_value=25),
    )
    def test_bounds(self, intentions, n_desired):
        selected = intentions[:n_desired]
        value = query_satisfaction(selected, n_desired=n_desired)
        assert 0.0 <= value <= 1.0


class TestConsumerProfile:
    def test_reports_initial_satisfaction_when_empty(self):
        profile = ConsumerProfile(k=5, initial_satisfaction=0.5)
        assert profile.satisfaction() == 0.5
        assert profile.adequation() == 0.5
        assert profile.allocation_satisfaction() == pytest.approx(1.0)

    def test_rejects_out_of_range_initial(self):
        with pytest.raises(ValueError):
            ConsumerProfile(k=5, initial_satisfaction=1.5)

    def test_window_averages_definitions_1_and_2(self):
        profile = ConsumerProfile(k=10)
        profile.record_query([1.0, -1.0], [1.0], n_desired=1)  # δa=.5, δs=1
        profile.record_query([0.0, 0.0], [0.0], n_desired=1)  # δa=.5, δs=.5
        assert profile.adequation() == pytest.approx(0.5)
        assert profile.satisfaction() == pytest.approx(0.75)
        assert profile.allocation_satisfaction() == pytest.approx(1.5)

    def test_sliding_window_evicts_old_queries(self):
        profile = ConsumerProfile(k=1)
        profile.record_query([1.0], [1.0], n_desired=1)
        profile.record_query([-1.0], [-1.0], n_desired=1)
        assert profile.satisfaction() == pytest.approx(0.0)
        assert profile.adequation() == pytest.approx(0.0)

    def test_is_punished_matches_departure_rule(self):
        profile = ConsumerProfile(k=4)
        # Consumer keeps being given its worst provider out of two.
        profile.record_query([1.0, -1.0], [-1.0], n_desired=1)
        assert profile.satisfaction() < profile.adequation()
        assert profile.is_punished()

    def test_record_returns_per_query_values(self):
        profile = ConsumerProfile(k=4)
        adequation, satisfaction = profile.record_query(
            [1.0, 0.0], [1.0], n_desired=1
        )
        assert adequation == pytest.approx(0.75)
        assert satisfaction == pytest.approx(1.0)

    def test_zero_adequation_conventions(self):
        profile = ConsumerProfile(k=2)
        profile.record_query([-1.0], [-1.0], n_desired=1)
        # δa = 0 and δs = 0 → neutral.
        assert profile.allocation_satisfaction() == 1.0
        profile_inf = ConsumerProfile(k=2)
        # One selected of two desired at intention -1: δs = 0.25, δa = 0.
        profile_inf.record_query([-1.0], [-1.0], n_desired=2)
        assert profile_inf.allocation_satisfaction() == float("inf")
