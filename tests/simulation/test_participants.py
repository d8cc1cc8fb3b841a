"""Tests for the vectorised participant pools.

The key test cross-checks the pools against the scalar reference
profiles in :mod:`repro.model` on random interaction traces: the
vectorised bookkeeping must implement exactly the same Definitions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.consumer_profile import ConsumerProfile
from repro.model.provider_profile import ProviderProfile
from repro.simulation.participants import (
    ConsumerPool,
    ProviderPool,
    ratio_with_zero_convention,
)


class TestRatioConvention:
    def test_plain_division(self):
        out = ratio_with_zero_convention(np.array([0.6]), np.array([0.5]))
        assert out[0] == pytest.approx(1.2)

    def test_zero_over_zero_is_neutral(self):
        out = ratio_with_zero_convention(np.array([0.0]), np.array([0.0]))
        assert out[0] == 1.0

    def test_positive_over_zero_is_inf(self):
        out = ratio_with_zero_convention(np.array([0.3]), np.array([0.0]))
        assert out[0] == np.inf


class TestConsumerPool:
    def test_initial_state(self):
        pool = ConsumerPool(5, memory=10, initial_satisfaction=0.5)
        assert pool.satisfactions().tolist() == [0.5] * 5
        assert pool.adequations().tolist() == [0.5] * 5
        assert pool.active_indices().tolist() == list(range(5))

    def test_record_and_aggregate(self):
        pool = ConsumerPool(2, memory=10, initial_satisfaction=0.5)
        pool.record_query(0, adequation=0.25, satisfaction=1.0)
        pool.record_query(0, adequation=0.75, satisfaction=0.0)
        assert pool.adequations()[0] == pytest.approx(0.5)
        assert pool.satisfactions()[0] == pytest.approx(0.5)
        # Consumer 1 untouched: still the initial values.
        assert pool.satisfactions()[1] == 0.5

    def test_deactivate(self):
        pool = ConsumerPool(3, memory=5, initial_satisfaction=0.5)
        pool.deactivate(1)
        assert pool.active_indices().tolist() == [0, 2]

    def test_allocation_satisfaction_vector(self):
        pool = ConsumerPool(1, memory=5, initial_satisfaction=0.5)
        pool.record_query(0, adequation=0.5, satisfaction=0.75)
        assert pool.allocation_satisfactions()[0] == pytest.approx(1.5)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1, allow_nan=False),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=40)
    def test_matches_scalar_profile(self, trace):
        pool = ConsumerPool(1, memory=7, initial_satisfaction=0.5)
        profile = ConsumerProfile(k=7, initial_satisfaction=0.5)
        for adequation, satisfaction in trace:
            pool.record_query(0, adequation, satisfaction)
            profile._adequations.push(adequation)
            profile._satisfactions.push(satisfaction)
        assert pool.adequations()[0] == pytest.approx(
            profile.adequation(), abs=1e-9
        )
        assert pool.satisfactions()[0] == pytest.approx(
            profile.satisfaction(), abs=1e-9
        )


class TestProviderPool:
    def _pool(self, n=3, memory=6, warm=0):
        return ProviderPool(
            n, memory=memory, initial_satisfaction=0.5, warm_start_entries=warm
        )

    def test_warm_start_seeds_initial_satisfaction(self):
        pool = self._pool(warm=1)
        assert pool.satisfactions().tolist() == [0.5] * 3
        assert pool.adequations().tolist() == [0.5] * 3
        assert pool.proposed_counts().tolist() == [1] * 3

    def test_strict_definition_5_without_warm_start(self):
        pool = self._pool(warm=0)
        assert pool.satisfactions().tolist() == [0.0] * 3

    def test_record_proposals_updates_both_channels(self):
        pool = self._pool(warm=0)
        providers = np.array([0, 1])
        pool.record_proposals(
            providers,
            intentions=np.array([1.0, -1.0]),
            preferences=np.array([-1.0, 1.0]),
            performed_at=np.array([0, 1]),
        )
        assert pool.satisfactions("intention")[0] == pytest.approx(1.0)
        assert pool.satisfactions("preference")[0] == pytest.approx(0.0)
        assert pool.satisfactions("intention")[1] == pytest.approx(0.0)
        assert pool.satisfactions("preference")[1] == pytest.approx(1.0)

    def test_starved_provider_has_zero_satisfaction(self):
        pool = self._pool(warm=0)
        for _ in range(4):
            pool.record_proposals(
                np.array([0]),
                intentions=np.array([0.8]),
                preferences=np.array([0.8]),
                performed_at=np.array([], dtype=np.int64),
            )
        assert pool.adequations()[0] == pytest.approx(0.9)
        assert pool.satisfactions()[0] == 0.0
        assert pool.allocation_satisfactions()[0] == 0.0

    def test_warm_start_ages_out(self):
        pool = self._pool(memory=2, warm=1)
        for _ in range(2):
            pool.record_proposals(
                np.array([0]),
                intentions=np.array([0.5]),
                preferences=np.array([0.5]),
                performed_at=np.array([], dtype=np.int64),
            )
        # Provider 0's warm entry was evicted: strict Definition 5.
        assert pool.satisfactions()[0] == 0.0
        # Untouched providers keep the warm-start value.
        assert pool.satisfactions()[1] == 0.5

    def test_rejects_unknown_basis(self):
        pool = self._pool()
        with pytest.raises(ValueError):
            pool.satisfactions("mood")

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.booleans(),
            ),
            min_size=0,
            max_size=50,
        )
    )
    @settings(max_examples=40)
    def test_matches_scalar_profile(self, trace):
        pool = ProviderPool(
            1, memory=9, initial_satisfaction=0.5, warm_start_entries=0
        )
        profile = ProviderProfile(k=9, initial_satisfaction=0.5)
        for intention, preference, performed in trace:
            pool.record_proposals(
                np.array([0]),
                intentions=np.array([intention]),
                preferences=np.array([preference]),
                performed_at=np.flatnonzero([performed]),
            )
            profile.record_proposal(intention, preference, performed)
        for basis in ("intention", "preference"):
            assert pool.adequations(basis)[0] == pytest.approx(
                profile.adequation(basis), abs=1e-9
            )
            assert pool.satisfactions(basis)[0] == pytest.approx(
                profile.satisfaction(basis), abs=1e-9
            )
