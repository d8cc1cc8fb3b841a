"""Tests for provider FIFO queues and response times."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.queueing import ProviderQueues


class TestProviderQueues:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProviderQueues(np.array([]))
        with pytest.raises(ValueError):
            ProviderQueues(np.array([100.0, 0.0]))

    def test_idle_provider_serves_immediately(self):
        queues = ProviderQueues(np.array([100.0]))
        completions = queues.assign(np.array([0]), 130.0, now=5.0)
        assert completions[0] == pytest.approx(6.3)

    def test_service_time_scales_with_capacity(self):
        """The paper's anchor: a 130-unit query takes 1.3 s at a
        high-capacity provider and 3× / 7× longer down the classes."""
        queues = ProviderQueues(np.array([100.0, 100.0 / 3, 100.0 / 7]))
        completions = queues.assign(np.array([0, 1, 2]), 130.0, now=0.0)
        assert completions[0] == pytest.approx(1.3)
        assert completions[1] == pytest.approx(3.9)
        assert completions[2] == pytest.approx(9.1)

    def test_fifo_backlog_accumulates(self):
        queues = ProviderQueues(np.array([100.0]))
        queues.assign(np.array([0]), 100.0, now=0.0)  # busy until 1.0
        completions = queues.assign(np.array([0]), 100.0, now=0.5)
        assert completions[0] == pytest.approx(2.0)
        assert queues.backlog_seconds(0.5)[0] == pytest.approx(1.5)

    def test_queue_drains_with_time(self):
        queues = ProviderQueues(np.array([100.0]))
        queues.assign(np.array([0]), 100.0, now=0.0)
        assert queues.backlog_seconds(5.0)[0] == 0.0
        completions = queues.assign(np.array([0]), 100.0, now=5.0)
        assert completions[0] == pytest.approx(6.0)

    def test_estimate_delay_is_wait_plus_service(self):
        queues = ProviderQueues(np.array([100.0, 50.0]))
        queues.assign(np.array([0]), 200.0, now=0.0)  # busy until 2.0
        delays = queues.estimate_delay(np.array([0, 1]), 100.0, now=1.0)
        assert delays[0] == pytest.approx(1.0 + 1.0)
        assert delays[1] == pytest.approx(0.0 + 2.0)

    def test_response_time_is_last_completion(self):
        queues = ProviderQueues(np.array([100.0, 10.0]))
        completions = queues.assign(np.array([0, 1]), 100.0, now=2.0)
        assert queues.response_time(completions, issued_at=2.0) == (
            pytest.approx(10.0)
        )

    def test_assignment_counters(self):
        queues = ProviderQueues(np.array([100.0, 100.0]))
        queues.assign(np.array([0]), 100.0, now=0.0)
        queues.assign(np.array([0]), 100.0, now=0.0)
        assert queues.completed_counts().tolist() == [2, 0]
        assert queues.busy_seconds()[0] == pytest.approx(2.0)

    def test_single_int_provider_matches_the_array_form(self):
        """q.n = 1's scalar path: a float completion, the same state."""
        scalar = ProviderQueues(np.array([100.0, 50.0]))
        vector = ProviderQueues(np.array([100.0, 50.0]))
        for provider, now in ((1, 0.0), (1, 0.5), (0, 3.0), (1, 10.0)):
            completion = scalar.assign(provider, 130.0, now)
            completions = vector.assign(np.array([provider]), 130.0, now)
            assert type(completion) is float
            assert completion == completions.item(0)
            assert scalar.response_time(completion, now) == (
                vector.response_time(completions, now)
            )
        assert np.array_equal(scalar.busy_until, vector.busy_until)
        assert np.array_equal(
            scalar.completed_counts(), vector.completed_counts()
        )
        assert np.array_equal(scalar.busy_seconds(), vector.busy_seconds())
        with pytest.raises(IndexError):
            scalar.assign(2, 130.0, now=0.0)
        with pytest.raises(ValueError):
            scalar.assign(0, -5.0, now=0.0)

    def test_rejects_empty_assignment(self):
        queues = ProviderQueues(np.array([100.0]))
        with pytest.raises(ValueError):
            queues.assign(np.array([], dtype=int), 100.0, now=0.0)
        with pytest.raises(ValueError):
            queues.assign(np.array([0]), -5.0, now=0.0)
