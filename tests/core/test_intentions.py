"""Tests for Definitions 7 and 8 (participant intentions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intentions import (
    clip_intention,
    consumer_intention,
    consumer_intention_vector,
    provider_intention,
    provider_intention_surface,
    provider_intention_vector,
)

signed = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
utilization = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


def two_branch_provider_intention(prf, ut, sat, epsilon):
    """Definition 8 with both branches evaluated on every lane, then
    selected: the form the single-branch kernel replaced, kept as its
    bit-exact reference."""
    positive = (prf > 0.0) & (ut < 1.0)
    pos = np.power(np.maximum(prf, 0.0), 1.0 - sat) * np.power(
        np.maximum(1.0 - ut, 0.0), sat
    )
    neg = -(np.power(1.0 - prf + epsilon, 1.0 - sat) * np.power(ut + epsilon, sat))
    return np.where(positive, pos, neg)


class TestConsumerIntention:
    def test_positive_branch_geometric_tradeoff(self):
        value = consumer_intention(0.64, 0.25, upsilon=0.5)
        assert value == pytest.approx(np.sqrt(0.64) * np.sqrt(0.25))

    def test_upsilon_one_reduces_to_preference_when_positive(self):
        assert consumer_intention(0.7, 0.9, upsilon=1.0) == pytest.approx(0.7)

    def test_upsilon_zero_reduces_to_reputation_when_positive(self):
        assert consumer_intention(0.7, 0.9, upsilon=0.0) == pytest.approx(0.9)

    def test_negative_preference_takes_negative_branch(self):
        value = consumer_intention(-0.5, 0.9, upsilon=1.0)
        # -( (1 - (-0.5) + 1)^1 × (...)^0 ) = -2.5
        assert value == pytest.approx(-2.5)

    def test_negative_branch_is_monotone_in_preference(self):
        worse = consumer_intention(-0.9, 0.5, upsilon=0.7)
        better = consumer_intention(-0.1, 0.5, upsilon=0.7)
        assert better > worse

    def test_epsilon_prevents_zero_at_extremes(self):
        # preference 1 but reputation ≤ 0: negative branch must not be 0.
        value = consumer_intention(1.0, 0.0, upsilon=0.5, epsilon=1.0)
        assert value < 0.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            consumer_intention(1.5, 0.5)
        with pytest.raises(ValueError):
            consumer_intention(0.5, -2.0)
        with pytest.raises(ValueError):
            consumer_intention(0.5, 0.5, upsilon=1.5)
        with pytest.raises(ValueError):
            consumer_intention(0.5, 0.5, epsilon=0.0)

    @given(signed, signed, unit)
    def test_scalar_vector_agreement(self, preference, reputation, upsilon):
        scalar = consumer_intention(preference, reputation, upsilon)
        vector = consumer_intention_vector(
            np.array([preference]), np.array([reputation]), upsilon
        )
        assert vector[0] == pytest.approx(scalar, abs=1e-12)

    @given(signed, signed, unit)
    def test_sign_matches_branch_condition(self, preference, reputation, upsilon):
        value = consumer_intention(preference, reputation, upsilon)
        if preference > 0 and reputation > 0:
            assert value > 0
        else:
            assert value < 0


class TestProviderIntention:
    def test_positive_branch_balances_preference_and_load(self):
        value = provider_intention(0.81, 0.36, satisfaction=0.5)
        assert value == pytest.approx(np.sqrt(0.81) * np.sqrt(0.64))

    def test_dissatisfied_provider_follows_preferences(self):
        # δs = 0: utilisation exponent vanishes entirely.
        assert provider_intention(0.7, 0.9, satisfaction=0.0) == pytest.approx(
            0.7
        )

    def test_satisfied_provider_follows_utilization(self):
        # δs = 1: preference exponent vanishes entirely.
        assert provider_intention(0.7, 0.25, satisfaction=1.0) == pytest.approx(
            0.75
        )

    def test_overloaded_provider_shows_negative_intention(self):
        value = provider_intention(0.9, 1.5, satisfaction=0.5)
        assert value < 0.0

    def test_unwanted_query_shows_negative_intention(self):
        value = provider_intention(-0.3, 0.1, satisfaction=0.5)
        assert value < 0.0

    def test_negative_branch_worsens_with_utilization(self):
        lighter = provider_intention(-0.5, 0.2, satisfaction=0.5)
        heavier = provider_intention(-0.5, 1.8, satisfaction=0.5)
        assert heavier < lighter

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            provider_intention(2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            provider_intention(0.5, -0.1, 0.5)
        with pytest.raises(ValueError):
            provider_intention(0.5, 0.5, 1.5)
        with pytest.raises(ValueError):
            provider_intention(0.5, 0.5, 0.5, epsilon=-1.0)

    @given(signed, utilization, unit)
    def test_scalar_vector_agreement(self, preference, ut, satisfaction):
        scalar = provider_intention(preference, ut, satisfaction)
        vector = provider_intention_vector(
            np.array([preference]), np.array([ut]), np.array([satisfaction])
        )
        assert vector[0] == pytest.approx(scalar, abs=1e-12)

    @given(
        lanes=st.lists(
            # Boundary lanes (branch edges, idle, saturated, extreme
            # satisfaction) mixed with regular ones in one array.
            st.tuples(
                st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), signed),
                st.one_of(st.sampled_from([0.0, 1.0, 2.0]), utilization),
                st.one_of(st.sampled_from([0.0, 1.0]), unit),
            ),
            min_size=1,
            max_size=40,
        ),
        epsilon=st.sampled_from([1.0, 0.5, 1e-3]),
    )
    @settings(max_examples=150)
    def test_single_branch_kernel_is_bit_identical(self, lanes, epsilon):
        prf, ut, sat = (np.array(column) for column in zip(*lanes))
        expected = two_branch_provider_intention(prf, ut, sat, epsilon)
        actual = provider_intention_vector(prf, ut, sat, epsilon=epsilon)
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))

    @given(signed, utilization, unit)
    def test_sign_matches_branch_condition(self, preference, ut, satisfaction):
        value = provider_intention(preference, ut, satisfaction)
        if preference > 0 and ut < 1.0:
            assert value > 0
        else:
            assert value < 0

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.99),
        unit,
    )
    @settings(max_examples=80)
    def test_positive_branch_bounded_by_one(self, preference, ut, satisfaction):
        assert provider_intention(preference, ut, satisfaction) <= 1.0


class TestFigure2Surface:
    def test_surface_shape_and_axes(self):
        prefs, uts, surface = provider_intention_surface(
            0.5, preference_points=11, utilization_points=21
        )
        assert prefs.shape == (11,)
        assert uts.shape == (21,)
        assert surface.shape == (11, 21)
        assert prefs[0] == -1.0 and prefs[-1] == 1.0
        assert uts[0] == 0.0 and uts[-1] == 2.0

    def test_surface_matches_figure_2_extremes(self):
        """Figure 2: positive peak near (pref→1, Ut→0); the deepest
        negative values at (pref→-1, Ut→2)."""
        _, _, surface = provider_intention_surface(0.5)
        assert surface[-1, 0] == pytest.approx(1.0)  # wants it, idle
        assert surface.min() == surface[0, -1]  # hates it, overloaded
        assert surface[0, -1] == pytest.approx(-3.0)

    def test_rejects_bad_satisfaction(self):
        with pytest.raises(ValueError):
            provider_intention_surface(1.5)


class TestClipIntention:
    def test_scalar_clip(self):
        assert clip_intention(-2.5) == -1.0
        assert clip_intention(0.3) == 0.3
        assert clip_intention(1.7) == 1.0

    def test_array_clip(self):
        values = clip_intention(np.array([-3.0, 0.0, 2.0]))
        assert values.tolist() == [-1.0, 0.0, 1.0]
