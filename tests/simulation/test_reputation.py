"""Tests for the reputation registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.reputation import ReputationRegistry


class TestReputationRegistry:
    def test_scalar_initialisation(self):
        registry = ReputationRegistry(3, initial=0.4)
        assert registry.values.tolist() == [0.4, 0.4, 0.4]

    def test_array_initialisation(self):
        registry = ReputationRegistry(2, initial=np.array([0.1, -0.5]))
        assert registry.of(np.array([1])).tolist() == [-0.5]

    def test_initial_array_is_copied(self):
        initial = np.array([0.1, 0.2])
        registry = ReputationRegistry(2, initial=initial)
        initial[0] = 0.9
        assert registry.values.tolist() == [0.1, 0.2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReputationRegistry(0)
        with pytest.raises(ValueError):
            ReputationRegistry(2, initial=2.0)
