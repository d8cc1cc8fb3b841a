"""Tests for provider ranking and selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import rank_providers, select_top, top_selection


class TestRankProviders:
    def test_orders_best_first(self, rng):
        scores = np.array([0.1, 0.9, 0.5])
        ranking = rank_providers(scores, rng=rng)
        assert ranking.tolist() == [1, 2, 0]

    def test_index_tie_break_is_stable(self):
        scores = np.array([0.5, 0.9, 0.5])
        ranking = rank_providers(scores, tie_break="index")
        assert ranking.tolist() == [1, 0, 2]

    def test_random_tie_break_spreads_ties(self, rng):
        scores = np.zeros(4)
        firsts = {
            int(rank_providers(scores, rng=rng)[0]) for _ in range(200)
        }
        assert firsts == {0, 1, 2, 3}

    def test_random_tie_break_requires_rng(self):
        with pytest.raises(ValueError):
            rank_providers(np.array([0.5, 0.5]), rng=None, tie_break="random")

    def test_rejects_nan_scores(self, rng):
        with pytest.raises(ValueError):
            rank_providers(np.array([0.5, float("nan")]), rng=rng)

    def test_rejects_unknown_tie_break(self, rng):
        with pytest.raises(ValueError):
            rank_providers(np.array([0.5]), rng=rng, tie_break="alphabetical")

    def test_rejects_2d_scores(self, rng):
        with pytest.raises(ValueError):
            rank_providers(np.zeros((2, 2)), rng=rng)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_is_a_score_sorted_permutation(self, scores):
        values = np.asarray(scores)
        ranking = rank_providers(
            values, rng=np.random.default_rng(0), tie_break="random"
        )
        assert sorted(ranking.tolist()) == list(range(len(scores)))
        ranked_scores = values[ranking]
        assert np.all(np.diff(ranked_scores) <= 1e-12)


class TestSelectTop:
    def test_truncates_to_n_desired(self):
        ranking = np.array([3, 1, 2, 0])
        assert select_top(ranking, 2).tolist() == [3, 1]

    def test_returns_all_when_n_exceeds_candidates(self):
        """Algorithm 1: when q.n > N, all N providers are selected."""
        ranking = np.array([1, 0])
        assert select_top(ranking, 5).tolist() == [1, 0]

    def test_rejects_non_positive_n(self):
        with pytest.raises(ValueError):
            select_top(np.array([0]), 0)


#: A tiny value set forces heavy ties, the case where the linear-scan
#: fast path could diverge from the full sort; the infinities sit at
#: both ends of it.
TIED_SCORES = st.sampled_from([-np.inf, -1.5, -0.25, 0.0, 0.7, 0.7, 1.0, np.inf])


@st.composite
def scores_with_nan(draw):
    """Scores with a NaN at one position, at several, or at every one."""
    scores = draw(st.lists(TIED_SCORES, min_size=1, max_size=25))
    where = draw(st.sampled_from(("one", "several", "every")))
    if where == "every":
        at = range(len(scores))
    else:
        positions = st.integers(min_value=0, max_value=len(scores) - 1)
        at = draw(
            st.lists(positions, min_size=1, max_size=1 if where == "one" else 5)
        )
    for position in at:
        scores[position] = np.nan
    return np.array(scores)


class TestTopSelection:
    @given(
        scores=st.lists(TIED_SCORES, min_size=1, max_size=25),
        n_select=st.integers(min_value=1, max_value=5),
        tie_break=st.sampled_from(["random", "index"]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=150)
    def test_matches_full_ranking_slice_and_rng_stream(
        self, scores, n_select, tie_break, seed
    ):
        """Property: top_selection ≡ rank_providers[:n], same RNG use."""
        values = np.array(scores)
        rng_full = np.random.default_rng(seed)
        rng_top = np.random.default_rng(seed)
        full = rank_providers(values, rng=rng_full, tie_break=tie_break)
        top = top_selection(values, n_select, rng=rng_top, tie_break=tie_break)
        np.testing.assert_array_equal(
            top, full[: min(n_select, values.size)]
        )
        # Both paths must consume the identical jitter draw so the
        # engine's RNG stream is unchanged whichever is used.
        assert (
            rng_full.bit_generator.state == rng_top.bit_generator.state
        )

    @given(
        scores=scores_with_nan(),
        n_select=st.integers(min_value=1, max_value=5),
        tie_break=st.sampled_from(["random", "index"]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=150)
    def test_nan_anywhere_raises_on_every_path(
        self, scores, n_select, tie_break, seed
    ):
        """A NaN is refused before anything else is checked or drawn,
        by the selection and by the full ranking alike."""
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        for generator, policy in (
            (rng, tie_break),
            (None, tie_break),  # before the missing-rng error
            (rng, "alphabetical"),  # before the unknown-policy error
        ):
            with pytest.raises(ValueError, match="scores must not contain NaN"):
                top_selection(scores, n_select, rng=generator, tie_break=policy)
            with pytest.raises(ValueError, match="scores must not contain NaN"):
                rank_providers(scores, rng=generator, tie_break=policy)
        assert rng.bit_generator.state == state

    def test_index_tie_break_takes_first_maximum(self):
        scores = np.array([0.5, 0.9, 0.9, 0.1])
        assert top_selection(scores, 1, tie_break="index").tolist() == [1]

    def test_requires_rng_for_random_tie_break(self):
        with pytest.raises(ValueError):
            top_selection(np.array([0.5, 0.5]), 1, rng=None)

    def test_rejects_nan_and_bad_n(self, rng):
        with pytest.raises(ValueError):
            top_selection(np.array([0.5, float("nan")]), 1, rng=rng)
        with pytest.raises(ValueError):
            top_selection(np.array([0.5]), 0, rng=rng)

    def test_single_candidate_consumes_no_jitter(self, rng):
        state_before = rng.bit_generator.state
        assert top_selection(np.array([0.3]), 1, rng=rng).tolist() == [0]
        assert rng.bit_generator.state == state_before
