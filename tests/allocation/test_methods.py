"""Tests for the allocation methods against synthetic requests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.allocation.base import AllocationRequest
from repro.allocation.capacity_based import CapacityBasedMethod
from repro.allocation.mariposa import MariposaMethod
from repro.allocation.naive import RandomMethod, RoundRobinMethod
from repro.allocation.sqlb_method import SQLBMethod
from repro.core.ranking import rank_providers
from repro.simulation.queries import Query


def make_request(
    n_providers=4,
    n_desired=1,
    provider_intentions=None,
    consumer_intentions=None,
    provider_preferences=None,
    utilizations=None,
    capacities=None,
    backlog=None,
    consumer_satisfaction=0.5,
    provider_satisfactions=None,
    seed=3,
):
    """A fully specified synthetic allocation request."""
    def default(values, fill):
        if values is None:
            return np.full(n_providers, fill, dtype=float)
        return np.asarray(values, dtype=float)

    query = Query(
        qid=0,
        consumer=0,
        klass=0,
        cost_units=130.0,
        n_desired=n_desired,
        issued_at=10.0,
    )
    return AllocationRequest(
        time=10.0,
        query=query,
        candidates=np.arange(n_providers),
        consumer_intentions=default(consumer_intentions, 0.5),
        provider_intentions=default(provider_intentions, 0.5),
        provider_preferences=default(provider_preferences, 0.5),
        utilizations=default(utilizations, 0.5),
        capacities=default(capacities, 100.0),
        backlog_seconds=default(backlog, 0.0),
        consumer_satisfaction=consumer_satisfaction,
        provider_satisfactions=default(provider_satisfactions, 0.5),
        rng=np.random.default_rng(seed),
    )


class TestRequestProperties:
    def test_n_to_select_caps_at_candidates(self):
        request = make_request(n_providers=3, n_desired=7)
        assert request.n_to_select == 3

    def test_n_to_select_honours_n_desired(self):
        request = make_request(n_providers=5, n_desired=2)
        assert request.n_to_select == 2


class TestCapacityBased:
    def test_selects_highest_available_capacity(self):
        request = make_request(
            capacities=[100.0, 100.0, 50.0, 10.0],
            utilizations=[0.9, 0.2, 0.0, 0.0],
        )
        # Available: 10, 80, 50, 10 → provider 1 wins.
        selected = CapacityBasedMethod().select(request)
        assert selected.tolist() == [1]

    def test_overloaded_provider_ranks_below_idle_small_one(self):
        request = make_request(
            capacities=[100.0, 10.0], utilizations=[1.5, 0.0]
        )
        selected = CapacityBasedMethod().select(request)
        assert selected.tolist() == [1]

    def test_ignores_intentions_entirely(self):
        request = make_request(
            provider_intentions=[-1.0, 1.0],
            consumer_intentions=[-1.0, 1.0],
            capacities=[100.0, 10.0],
            utilizations=[0.0, 0.0],
            n_providers=2,
        )
        selected = CapacityBasedMethod().select(request)
        assert selected.tolist() == [0]


class TestMariposa:
    def test_interested_provider_underbids(self):
        method = MariposaMethod()
        request = make_request(
            provider_preferences=[1.0, -1.0], utilizations=[0.0, 0.0],
            n_providers=2,
        )
        bids = method.bids(request)
        assert bids[0] < bids[1]
        assert method.select(request).tolist() == [0]

    def test_load_modifier_raises_bids(self):
        method = MariposaMethod(load_weight=1.0)
        request = make_request(
            provider_preferences=[1.0, 1.0], utilizations=[2.0, 0.0],
            n_providers=2,
        )
        assert method.select(request).tolist() == [1]

    def test_bid_curve_rejects_slow_providers(self):
        method = MariposaMethod(max_delay=5.0)
        # Provider 0 bids cheapest but has a 100 s backlog.
        request = make_request(
            provider_preferences=[1.0, 0.0],
            backlog=[100.0, 0.0],
            n_providers=2,
        )
        assert method.select(request).tolist() == [1]

    def test_backfills_when_no_bid_under_curve(self):
        method = MariposaMethod(max_delay=5.0)
        request = make_request(
            provider_preferences=[1.0, 0.0],
            backlog=[100.0, 100.0],
            n_providers=2,
        )
        # Both disqualified: cheapest (preference 1.0) still wins.
        assert method.select(request).tolist() == [0]

    @given(
        lanes=st.lists(
            # Few distinct preferences and loads force tied bids; the
            # backlogs put bids on both sides of the 15 s curve.
            st.tuples(
                st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.sampled_from([0.0, 10.0, 100.0]),
            ),
            min_size=1,
            max_size=12,
        ),
        n_desired=st.integers(min_value=1, max_value=3),
        tie_break=st.sampled_from(["random", "index"]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @example(  # tied bids, all under the curve
        lanes=[(0.5, 0.5, 0.0)] * 4, n_desired=1, tie_break="random", seed=0
    )
    @example(  # no bid under the curve
        lanes=[(1.0, 0.0, 100.0), (0.0, 0.0, 100.0)],
        n_desired=1, tie_break="random", seed=1,
    )
    @example(  # a single candidate
        lanes=[(0.0, 0.5, 100.0)], n_desired=1, tie_break="random", seed=2
    )
    @settings(max_examples=150)
    def test_selection_matches_full_ranking_and_rng_stream(
        self, lanes, n_desired, tie_break, seed
    ):
        """The q.n = 1 linear scan picks what the full ranking picks."""
        preferences, utilizations, backlog = (list(c) for c in zip(*lanes))

        def request():
            return make_request(
                n_providers=len(lanes), n_desired=n_desired,
                provider_preferences=preferences, utilizations=utilizations,
                backlog=backlog, seed=seed,
            )

        method = MariposaMethod(tie_break=tie_break)
        fast, reference = request(), request()
        selected = method.select(fast)
        # The selection the linear scan replaced: rank every bid
        # cheapest-first, take the qualified ones, backfill the rest.
        ranking = rank_providers(
            -method.bids(reference), rng=reference.rng, tie_break=tie_break
        )
        delays = reference.backlog_seconds + (
            reference.query.cost_units / reference.capacities
        )
        qualified = delays[ranking] <= 15.0
        n = reference.n_to_select
        winners = ranking[qualified][:n]
        expected = np.concatenate(
            (winners, ranking[~qualified][: n - winners.size])
        )
        np.testing.assert_array_equal(selected, expected)
        assert fast.rng.bit_generator.state == reference.rng.bit_generator.state

    @given(
        lanes=st.lists(
            st.tuples(
                # (preference, backlog): a tied or distinct bid, under
                # the bid curve or over it.
                st.sampled_from([-1.0, 0.5, 0.5, 1.0]),
                st.sampled_from([0.0, 100.0]),
            ),
            min_size=1,
            max_size=12,
        ),
        # NaN preferences, by lane (taken modulo the lane count).
        nan_at=st.lists(st.integers(min_value=0, max_value=11), min_size=1),
        tie_break=st.sampled_from(["random", "index"]),
    )
    # Qualified, disqualified beside a qualified bid, all disqualified.
    @example(lanes=[(0.5, 0.0), (0.5, 0.0)], nan_at=[0], tie_break="random")
    @example(lanes=[(0.5, 100.0), (0.5, 0.0)], nan_at=[0], tie_break="random")
    @example(lanes=[(0.5, 100.0), (0.5, 100.0)], nan_at=[0], tie_break="random")
    @settings(max_examples=100)
    def test_nan_bids_raise(self, lanes, nan_at, tie_break):
        """At q.n = 1 a NaN bid anywhere, qualified or not, is refused."""
        preferences, backlog = (list(column) for column in zip(*lanes))
        for position in nan_at:
            preferences[position % len(lanes)] = float("nan")
        request = make_request(
            provider_preferences=preferences,
            backlog=backlog,
            n_providers=len(lanes),
        )
        with pytest.raises(ValueError, match="scores must not contain NaN"):
            MariposaMethod(tie_break=tie_break).select(request)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            MariposaMethod(base_spread=1.0)
        with pytest.raises(ValueError):
            MariposaMethod(load_weight=-0.5)
        with pytest.raises(ValueError):
            MariposaMethod(max_delay=0.0)


class TestSQLBMethod:
    def test_delegates_to_core_allocation(self):
        request = make_request(
            provider_intentions=[0.9, 0.1],
            consumer_intentions=[0.9, 0.1],
            n_providers=2,
        )
        assert SQLBMethod().select(request).tolist() == [0]

    def test_fixed_omega_zero_follows_consumer(self):
        request = make_request(
            provider_intentions=[0.9, 0.1],
            consumer_intentions=[0.1, 0.9],
            n_providers=2,
        )
        assert SQLBMethod(fixed_omega=0.0).select(request).tolist() == [1]

    def test_validates_epsilon(self):
        with pytest.raises(ValueError):
            SQLBMethod(epsilon=0.0)


class TestNaiveMethods:
    def test_random_selects_valid_positions(self):
        request = make_request(n_providers=5, n_desired=2)
        selected = RandomMethod().select(request)
        assert selected.size == 2
        assert np.unique(selected).size == 2
        assert selected.max() < 5

    def test_round_robin_rotates(self):
        method = RoundRobinMethod()
        picks = [
            int(method.select(make_request(n_providers=3))[0])
            for _ in range(6)
        ]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_reset(self):
        method = RoundRobinMethod()
        method.select(make_request(n_providers=3))
        method.reset()
        assert int(method.select(make_request(n_providers=3))[0]) == 0
