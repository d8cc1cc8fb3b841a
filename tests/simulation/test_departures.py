"""Tests for the departure policy (Section 6.3.2 thresholds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.config import DepartureRules
from repro.simulation.departures import DeparturePolicy
from repro.simulation.participants import ConsumerPool, ProviderPool


def make_policy(rules, n_providers=4, warm=0):
    classes = np.zeros(n_providers, dtype=int)
    return DeparturePolicy(
        rules,
        interest_classes=classes,
        adaptation_classes=classes + 1,
        capacity_classes=classes + 2,
        warm_start_entries=warm,
    )


def punished_consumer_pool(n=2, queries=15):
    """Consumers that always get their worst provider."""
    pool = ConsumerPool(n, memory=50, initial_satisfaction=0.5)
    for consumer in range(n):
        for _ in range(queries):
            pool.record_query(consumer, adequation=0.6, satisfaction=0.2)
    return pool


def starved_provider_pool(n=4, proposals=15):
    """Providers proposed plenty of adequate queries, performing none."""
    pool = ProviderPool(
        n, memory=50, initial_satisfaction=0.5, warm_start_entries=0
    )
    for _ in range(proposals):
        pool.record_proposals(
            np.arange(n),
            intentions=np.full(n, 0.8),
            preferences=np.full(n, 0.8),
            performed_at=np.array([], dtype=np.int64),
        )
    return pool


class TestConsumerDepartures:
    def test_disabled_when_captive(self):
        policy = make_policy(DepartureRules.captive())
        pool = punished_consumer_pool()
        assert policy.check_consumers(1.0, pool) == []

    def test_punished_consumer_leaves_after_persistence(self):
        rules = DepartureRules(
            consumers_may_leave=True, consumer_persistence=3
        )
        policy = make_policy(rules)
        pool = punished_consumer_pool(n=2)
        assert policy.check_consumers(1.0, pool) == []
        assert policy.check_consumers(2.0, pool) == []
        records = policy.check_consumers(3.0, pool)
        assert len(records) == 2
        assert all(r.reason == "dissatisfaction" for r in records)
        assert not pool.active.any()

    def test_recovery_resets_streak(self):
        rules = DepartureRules(
            consumers_may_leave=True, consumer_persistence=2
        )
        policy = make_policy(rules)
        pool = punished_consumer_pool(n=1)
        assert policy.check_consumers(1.0, pool) == []
        # Consumer recovers: satisfaction climbs above adequation.
        for _ in range(40):
            pool.record_query(0, adequation=0.2, satisfaction=0.9)
        assert policy.check_consumers(2.0, pool) == []
        assert policy.check_consumers(3.0, pool) == []

    def test_uninformed_consumers_are_not_judged(self):
        rules = DepartureRules(
            consumers_may_leave=True, consumer_persistence=1
        )
        policy = make_policy(rules)
        pool = punished_consumer_pool(n=1, queries=3)  # below threshold
        assert policy.check_consumers(1.0, pool) == []

    def test_resized_pool_is_rejected_loudly(self):
        rules = DepartureRules(
            consumers_may_leave=True, consumer_persistence=3
        )
        policy = make_policy(rules)
        policy.check_consumers(1.0, punished_consumer_pool(n=2))
        with pytest.raises(ValueError, match="resizing pools"):
            policy.check_consumers(2.0, punished_consumer_pool(n=3))


class TestProviderDepartures:
    def _utilization(self, n=4, value=0.8):
        return np.full(n, value)

    def test_dissatisfaction_threshold_with_margin(self):
        rules = DepartureRules(
            provider_reasons=("dissatisfaction",), persistence=1
        )
        policy = make_policy(rules)
        pool = starved_provider_pool()
        records = policy.check_providers(
            5.0, pool, self._utilization(), optimal_utilization=0.8
        )
        # δs = 0 < δa (0.9) - 0.15 for everyone.
        assert len(records) == 4
        assert all(r.reason == "dissatisfaction" for r in records)
        assert records[0].adaptation_class == 1
        assert records[0].capacity_class == 2

    def test_margin_protects_mild_dissatisfaction(self):
        rules = DepartureRules(
            provider_reasons=("dissatisfaction",), persistence=1
        )
        policy = make_policy(rules, n_providers=1)
        pool = ProviderPool(
            1, memory=50, initial_satisfaction=0.5, warm_start_entries=0
        )
        for _ in range(15):
            # δa ≈ 0.75, δs = 0.7: inside the 0.15 margin.
            pool.record_proposals(
                np.array([0]),
                intentions=np.array([0.5]),
                preferences=np.array([0.5]),
                performed_at=np.array([], dtype=np.int64),
            )
            pool.record_proposals(
                np.array([0]),
                intentions=np.array([0.4]),
                preferences=np.array([0.4]),
                performed_at=np.array([0]),
            )
        records = policy.check_providers(
            5.0, pool, np.array([0.8]), optimal_utilization=0.8
        )
        assert records == []

    def test_starvation_and_overutilization_thresholds(self):
        rules = DepartureRules(
            provider_reasons=("starvation", "overutilization"),
            persistence=1,
        )
        policy = make_policy(rules)
        pool = ProviderPool(
            4, memory=50, initial_satisfaction=0.5, warm_start_entries=0
        )
        for _ in range(15):
            pool.record_proposals(
                np.arange(4),
                intentions=np.full(4, 0.5),
                preferences=np.full(4, 0.5),
                performed_at=np.arange(4),
            )
        utilization = np.array([0.10, 0.17, 1.70, 1.80])
        records = policy.check_providers(
            5.0, pool, utilization, optimal_utilization=0.8
        )
        reasons = {r.index: r.reason for r in records}
        # Thresholds at 80 % workload: starve < 0.16, overuse > 1.76.
        assert reasons == {0: "starvation", 3: "overutilization"}

    def test_persistence_requires_consecutive_trips(self):
        rules = DepartureRules(
            provider_reasons=("overutilization",), persistence=2
        )
        policy = make_policy(rules, n_providers=1)
        pool = ProviderPool(
            1, memory=50, initial_satisfaction=0.5, warm_start_entries=0
        )
        for _ in range(15):
            pool.record_proposals(
                np.array([0]),
                intentions=np.array([0.5]),
                preferences=np.array([0.5]),
                performed_at=np.array([0]),
            )
        hot = np.array([2.0])
        cool = np.array([0.8])
        assert policy.check_providers(1.0, pool, hot, 0.8) == []
        assert policy.check_providers(2.0, pool, cool, 0.8) == []
        assert policy.check_providers(3.0, pool, hot, 0.8) == []
        records = policy.check_providers(4.0, pool, hot, 0.8)
        assert len(records) == 1
        assert not pool.active[0]

    def test_reason_priority_prefers_dissatisfaction(self):
        rules = DepartureRules(
            provider_reasons=(
                "dissatisfaction",
                "starvation",
                "overutilization",
            ),
            persistence=1,
        )
        policy = make_policy(rules)
        pool = starved_provider_pool()
        # Starved *and* dissatisfied: classified as dissatisfaction.
        records = policy.check_providers(
            5.0, pool, np.full(4, 0.01), optimal_utilization=0.8
        )
        assert all(r.reason == "dissatisfaction" for r in records)

    def test_resized_pool_is_rejected_loudly(self):
        """The lazy streak arrays are positional: a pool of a different
        size must trip the guard, never silently mis-attribute."""
        rules = DepartureRules(
            provider_reasons=("overutilization",), persistence=2
        )
        policy = make_policy(rules)
        pool = starved_provider_pool(n=4)
        policy.check_providers(1.0, pool, self._utilization(), 0.8)
        bigger = starved_provider_pool(n=5)
        with pytest.raises(ValueError, match="resizing pools"):
            policy.check_providers(
                2.0, bigger, self._utilization(n=5), 0.8
            )

    def test_departed_providers_not_rechecked(self):
        rules = DepartureRules(
            provider_reasons=("dissatisfaction",), persistence=1
        )
        policy = make_policy(rules)
        pool = starved_provider_pool()
        first = policy.check_providers(1.0, pool, self._utilization(), 0.8)
        assert len(first) == 4
        second = policy.check_providers(2.0, pool, self._utilization(), 0.8)
        assert second == []
