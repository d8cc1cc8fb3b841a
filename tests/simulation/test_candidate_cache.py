"""Tests for the engine's cached candidate sets.

The engine caches ``matchmaker.candidates(...)`` per query class and
invalidates on the provider pool's epoch (bumped by every departure).
The cache invariant — cached candidates always equal a fresh
``np.flatnonzero``-style recomputation — is exercised here across
randomized departure sequences, for both cacheable matchmakers and a
custom non-cacheable one; a matchmaker breaking the candidate-set
contract is refused on every fetch.  The Equation 1 adequation memo,
keyed on the identity of those arrays, always equals a fresh
computation.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.consumer_profile import query_adequation
from repro.simulation import engine
from repro.simulation.config import DepartureRules, WorkloadSpec, tiny_config
from repro.simulation.engine import MediatorSimulation
from repro.simulation.matchmaking import CapabilityMatchmaker, Matchmaker
from repro.simulation.queries import Query


def make_query(klass=0):
    return Query(
        qid=0, consumer=0, klass=klass, cost_units=130.0, n_desired=1,
        issued_at=0.0,
    )


def build_sim(matchmaker=None):
    return MediatorSimulation(
        tiny_config(), "sqlb", seed=0, matchmaker=matchmaker
    )


class TestUniversalCandidateCache:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 1)),
            max_size=30,
        )
    )
    def test_cached_candidates_always_match_flatnonzero(self, ops):
        """Property: the cache is indistinguishable from recomputing."""
        sim = build_sim()
        for provider, klass in ops:
            np.testing.assert_array_equal(
                sim._candidates(make_query(klass)),
                np.flatnonzero(sim.providers.active),
            )
            sim.providers.deactivate(provider)
        np.testing.assert_array_equal(
            sim._candidates(make_query(0)),
            np.flatnonzero(sim.providers.active),
        )

    def test_cache_returns_same_object_between_departures(self):
        sim = build_sim()
        first = sim._candidates(make_query(0))
        assert sim._candidates(make_query(0)) is first

    def test_departure_invalidates_cache(self):
        sim = build_sim()
        before = sim._candidates(make_query(0))
        sim.providers.deactivate(3)
        after = sim._candidates(make_query(0))
        assert 3 in before
        assert 3 not in after
        assert after.size == before.size - 1

    def test_capacity_gather_tracks_candidates(self):
        sim = build_sim()
        for provider in (0, 5, 9):
            sim.providers.deactivate(provider)
            candidates, capacities = sim._candidate_entry(make_query(0))
            np.testing.assert_array_equal(
                capacities, sim.capacity.rates[candidates]
            )


class TestCapabilityCandidateCache:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 1)),
            max_size=30,
        ),
        seed=st.integers(0, 5),
    )
    def test_cached_candidates_respect_capability_and_activity(
        self, ops, seed
    ):
        capability = np.random.default_rng(seed).random((16, 2)) < 0.8
        capability[0, :] = True  # keep every class feasible
        sim = build_sim(matchmaker=CapabilityMatchmaker(capability))
        for provider, klass in ops:
            expected = np.flatnonzero(
                capability[:, klass] & sim.providers.active
            )
            np.testing.assert_array_equal(
                sim._candidates(make_query(klass)), expected
            )
            sim.providers.deactivate(provider)


class CountingMatchmaker(Matchmaker):
    """Depends on the consumer, so it must never be cached."""

    cacheable_by_class = False

    def __init__(self):
        self.calls = 0

    def candidates(self, query, active):
        self.calls += 1
        return np.flatnonzero(active)


class TestNonCacheableMatchmaker:
    def test_every_query_recomputes(self):
        matchmaker = CountingMatchmaker()
        sim = build_sim(matchmaker=matchmaker)
        for _ in range(5):
            sim._candidates(make_query(0))
        assert matchmaker.calls == 5


class MalformedMatchmaker(Matchmaker):
    """Breaks the candidate-set contract in one chosen way."""

    def __init__(self, defect, cacheable):
        self.defect = defect
        self.cacheable_by_class = cacheable

    def candidates(self, query, active):
        everyone = np.arange(active.size)
        if self.defect == "duplicate":
            return np.insert(np.flatnonzero(active), 1, 0)
        if self.defect == "descending":
            return np.flatnonzero(active)[::-1]
        if self.defect == "departed":
            return everyone  # ignores the active mask
        if self.defect == "out_of_range":
            return everyone + 1
        if self.defect == "float":
            return everyone.astype(float)
        return everyone.reshape(2, -1)  # "2-d"


class TestMalformedCandidateSets:
    """A matchmaker breaking the contract fails loudly, cached or not."""

    @pytest.mark.parametrize("cacheable", [True, False])
    @pytest.mark.parametrize(
        ("defect", "message"),
        [
            ("duplicate", "strictly increasing"),
            ("descending", "strictly increasing"),
            ("departed", "inactive providers"),
            ("out_of_range", "outside"),
            ("float", "1-D integer array"),
            ("2-d", "1-D integer array"),
        ],
    )
    def test_run_raises_naming_the_matchmaker(self, defect, message, cacheable):
        sim = MediatorSimulation(
            tiny_config(), "sqlb", seed=1,
            matchmaker=MalformedMatchmaker(defect, cacheable),
        )
        sim.providers.deactivate(3)
        with pytest.raises(ValueError, match=f"MalformedMatchmaker.*{message}"):
            sim.run()

    def test_cacheable_matchmaker_is_checked_on_every_miss(self):
        sim = build_sim(MalformedMatchmaker("departed", cacheable=True))
        # Well formed while every provider is active ...
        sim._candidates(make_query(0))
        # ... and refused at the first miss after a departure.
        sim.providers.deactivate(3)
        with pytest.raises(ValueError, match="inactive providers"):
            sim._candidates(make_query(0))


class AdequationCheck:
    """Observer: every served query's Equation 1 adequation, recomputed."""

    def __init__(self):
        self.checked = 0

    def on_decision(self, request, positions, adequation, satisfaction, hit):
        clipped = np.clip(request.consumer_intentions, -1.0, 1.0)
        assert adequation == query_adequation(clipped)
        self.checked += 1


def alternating_capability():
    capability = np.zeros((16, 2), dtype=bool)
    capability[::2, 0] = True
    capability[1::2, 1] = True
    capability[:3, :] = True
    return capability


class TestAdequationMemo:
    @pytest.mark.parametrize("mode", ["preference", "formula"])
    @pytest.mark.parametrize(
        "matchmaker",
        [None, "capability", "uncached"],
    )
    def test_memo_equals_a_fresh_adequation(self, mode, matchmaker):
        """Departures, alternating candidate sets by class and fresh
        arrays every query: a memo hit is never stale."""
        config = tiny_config(
            duration=120.0,
            workload=WorkloadSpec.fixed(1.0),
            consumer_intention_mode=mode,
        ).with_departures(DepartureRules.autonomous(True))
        built = {
            None: None,
            "capability": CapabilityMatchmaker(alternating_capability()),
            "uncached": CountingMatchmaker(),
        }[matchmaker]
        check = AdequationCheck()
        result = MediatorSimulation(
            config, "sqlb", seed=2, matchmaker=built, observers=(check,)
        ).run()
        assert result.departures
        assert check.checked == result.queries_served > 0

    @pytest.mark.parametrize(
        ("mode", "memoized"), [("preference", True), ("formula", False)]
    )
    def test_preference_mode_computes_once_per_consumer(self, mode, memoized):
        config = tiny_config(duration=60.0, consumer_intention_mode=mode)
        with mock.patch.object(
            engine, "query_adequation", wraps=query_adequation
        ) as counted:
            result = MediatorSimulation(config, "sqlb", seed=5).run()
        # Captive: one candidate array for the whole run.
        if memoized:
            assert counted.call_count <= config.n_consumers
        else:
            assert counted.call_count == result.queries_served
