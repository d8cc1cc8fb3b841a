"""Tests for Definition 9 and Equation 6 (scoring)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    omega,
    omega_surface,
    omega_vector,
    provider_score,
    provider_score_vector,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
intention = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def two_branch_provider_score(pi, ci, om, epsilon):
    """Definition 9 with both branches evaluated on every lane, then
    selected: the form the single-branch kernel replaced, kept as its
    bit-exact reference."""
    positive = (pi > 0.0) & (ci > 0.0)
    pos = np.power(np.maximum(pi, 0.0), om) * np.power(
        np.maximum(ci, 0.0), 1.0 - om
    )
    neg = -(
        np.power(1.0 - pi + epsilon, om)
        * np.power(1.0 - ci + epsilon, 1.0 - om)
    )
    return np.where(positive, pos, neg)


class TestOmega:
    def test_equal_satisfactions_are_neutral(self):
        assert omega(0.5, 0.5) == 0.5
        assert omega(0.0, 0.0) == 0.5

    def test_satisfied_consumer_weighs_provider_interests(self):
        """δs(c) > δs(p) → ω > 0.5 → more weight to the provider."""
        assert omega(0.9, 0.1) == pytest.approx(0.9)

    def test_satisfied_provider_weighs_consumer_interests(self):
        assert omega(0.1, 0.9) == pytest.approx(0.1)

    def test_extremes(self):
        assert omega(1.0, 0.0) == 1.0
        assert omega(0.0, 1.0) == 0.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            omega(1.1, 0.5)
        with pytest.raises(ValueError):
            omega(0.5, -0.1)

    @given(unit, unit)
    def test_bounds(self, cs, ps):
        assert 0.0 <= omega(cs, ps) <= 1.0

    @given(unit, st.lists(unit, min_size=1, max_size=10))
    def test_vector_agreement(self, cs, provider_sats):
        vector = omega_vector(cs, np.array(provider_sats))
        for i, ps in enumerate(provider_sats):
            assert vector[i] == pytest.approx(omega(cs, ps))

    def test_vector_validates_range(self):
        with pytest.raises(ValueError):
            omega_vector(0.5, np.array([1.2]))
        with pytest.raises(ValueError):
            omega_vector(1.2, np.array([0.5]))

    def test_surface_is_figure_3(self):
        provider_axis, consumer_axis, grid = omega_surface(points=5)
        assert grid.shape == (5, 5)
        # Corners: fully satisfied consumer / dissatisfied provider → 1.
        assert grid[0, -1] == pytest.approx(1.0)
        assert grid[-1, 0] == pytest.approx(0.0)
        assert grid[2, 2] == pytest.approx(0.5)


class TestProviderScore:
    def test_positive_branch_geometric_tradeoff(self):
        value = provider_score(0.49, 0.81, omega_value=0.5)
        assert value == pytest.approx(np.sqrt(0.49) * np.sqrt(0.81))

    def test_omega_one_scores_provider_only(self):
        assert provider_score(0.6, 0.9, omega_value=1.0) == pytest.approx(0.6)

    def test_omega_zero_scores_consumer_only(self):
        """The paper's cooperative-provider deployment: ω = 0."""
        assert provider_score(0.6, 0.9, omega_value=0.0) == pytest.approx(0.9)

    def test_negative_when_either_intention_non_positive(self):
        assert provider_score(-0.2, 0.9, omega_value=0.5) < 0
        assert provider_score(0.9, -0.2, omega_value=0.5) < 0
        assert provider_score(0.0, 0.9, omega_value=0.5) < 0

    def test_accepts_sub_minus_one_provider_intention(self):
        """Definition 8's negative branch can emit values below -1; the
        score's negative branch must handle them."""
        value = provider_score(-2.5, 0.9, omega_value=0.5)
        assert value < 0
        assert np.isfinite(value)

    def test_negative_branch_orders_by_intentions(self):
        bad = provider_score(-0.9, -0.9, omega_value=0.5)
        less_bad = provider_score(-0.1, -0.1, omega_value=0.5)
        assert less_bad > bad

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            provider_score(0.5, 0.5, omega_value=1.2)
        with pytest.raises(ValueError):
            provider_score(1.5, 0.5, omega_value=0.5)
        with pytest.raises(ValueError):
            provider_score(0.5, 0.5, omega_value=0.5, epsilon=0.0)

    @given(intention, intention, unit)
    def test_scalar_vector_agreement(self, pi, ci, om):
        scalar = provider_score(pi, ci, om)
        vector = provider_score_vector(
            np.array([pi]), np.array([ci]), np.array([om])
        )
        assert vector[0] == pytest.approx(scalar, abs=1e-12)

    @given(
        lanes=st.lists(
            # Boundary lanes mixed with regular ones in one array; raw
            # provider intentions reach below -1 (Definition 8).
            st.tuples(
                st.one_of(
                    st.sampled_from([-1.0, 0.0, 1.0]),
                    st.floats(min_value=-2.5, max_value=1.0, allow_nan=False),
                ),
                st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), intention),
                st.one_of(st.sampled_from([0.0, 1.0]), unit),
            ),
            min_size=1,
            max_size=40,
        ),
        epsilon=st.sampled_from([1.0, 0.5, 1e-3]),
    )
    @settings(max_examples=150)
    def test_single_branch_kernel_is_bit_identical(self, lanes, epsilon):
        pi, ci, om = (np.array(column) for column in zip(*lanes))
        expected = two_branch_provider_score(pi, ci, om, epsilon)
        actual = provider_score_vector(pi, ci, om, epsilon=epsilon)
        assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))

    @given(intention, intention, unit)
    def test_sign_matches_branch(self, pi, ci, om):
        value = provider_score(pi, ci, om)
        if pi > 0 and ci > 0:
            assert value > 0
        else:
            assert value < 0

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        unit,
    )
    def test_positive_branch_bounded_by_one(self, pi, ci, om):
        assert provider_score(pi, ci, om) <= 1.0

    def test_vector_validates_omega_range(self):
        with pytest.raises(ValueError):
            provider_score_vector(
                np.array([0.5]), np.array([0.5]), np.array([1.5])
            )
