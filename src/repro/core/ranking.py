"""Provider ranking (the ``R_q`` vector of Section 5.3).

Providers are ranked from best to worst score; the top ``min(q.n, N)``
are selected.  Scores frequently tie (e.g. saturated negative branches,
or baseline methods with coarse criteria), so the ranking supports an
explicit tie-breaking policy:

* ``"random"`` (default) — tied providers are ordered uniformly at
  random, using the caller's RNG.  This is what a real mediator needs to
  avoid systematically favouring low provider identifiers, and it is
  what spreads the load across equally-scored providers.
* ``"index"`` — deterministic, by provider position; useful in tests.
"""

from __future__ import annotations

import numpy as np

__all__ = ["checked_argmax", "rank_providers", "select_top", "top_selection"]

_TIE_BREAKS = ("random", "index")


def rank_providers(
    scores: np.ndarray,
    rng: np.random.Generator | None = None,
    tie_break: str = "random",
) -> np.ndarray:
    """Indices of providers ordered best-score-first (the ``R_q`` vector).

    Parameters
    ----------
    scores:
        One score per candidate provider (any floats; NaN is rejected).
    rng:
        Random generator used for ``"random"`` tie-breaking; required in
        that mode.
    tie_break:
        ``"random"`` or ``"index"``.

    Returns
    -------
    numpy.ndarray
        A permutation of ``arange(len(scores))``; ``result[0]`` is the
        best-scored provider.
    """
    values = np.asarray(scores, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {values.shape}")
    if values.size:
        checked_argmax(values)
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    if tie_break == "index" or values.size <= 1:
        # Stable sort keeps index order among ties.
        return np.argsort(-values, kind="stable")
    if rng is None:
        raise ValueError("random tie-breaking requires an rng")
    # Sort by (score desc, random key): a fresh uniform key per call
    # breaks ties without disturbing the score ordering.
    jitter = rng.random(values.size)
    order = np.lexsort((jitter, -values))
    return order


def checked_argmax(values: np.ndarray) -> tuple[np.intp, float]:
    """Position and value of the first maximum of a non-empty float array.

    numpy's argmax returns the first NaN when there is one, so the value
    it points at is the whole NaN check: one C-level pass, no
    ``np.isnan`` mask.

    Raises
    ------
    ValueError
        If ``values`` holds a NaN.
    """
    best = values.argmax()
    top = values.item(best)
    if top != top:
        raise ValueError("scores must not contain NaN")
    return best, top


def top_selection(
    scores: np.ndarray,
    n_select: int,
    rng: np.random.Generator | None = None,
    tie_break: str = "random",
) -> np.ndarray:
    """The first ``n_select`` entries of :func:`rank_providers`'s ranking.

    Identical selection, cheaper route: sorting is only needed when more
    than one provider is taken, but the paper's experiments use
    ``q.n = 1`` everywhere — and sorting fresh scores (and fresh random
    jitter) every query is the single most expensive step of the
    allocation.  For ``n_select == 1`` this is a linear scan: the
    highest score wins, score ties fall to the lowest jitter, jitter
    ties to the lowest position — exactly the order ``lexsort`` defines,
    so the result is bit-identical to ``rank_providers(...)[:1]``.  The
    jitter is drawn either way, keeping the RNG stream unchanged.
    """
    if n_select < 1:
        raise ValueError(f"n_select must be at least 1, got {n_select}")
    values = np.asarray(scores, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"scores must be 1-D, got shape {values.shape}")
    if values.size:
        best, top = checked_argmax(values)
    if tie_break not in _TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}")
    if tie_break == "index" or values.size <= 1:
        if n_select == 1 and values.size > 1:
            # Stable sort puts the first maximal element on top.
            return np.array([best])
        return np.argsort(-values, kind="stable")[:n_select]
    if rng is None:
        raise ValueError("random tie-breaking requires an rng")
    jitter = rng.random(values.size)
    if n_select == 1:
        ties = values == top
        if np.count_nonzero(ties) > 1:
            tied = np.flatnonzero(ties)
            best = tied[np.argmin(jitter[tied])]
        return np.array([best])
    order = np.lexsort((jitter, -values))
    return order[:n_select]


def select_top(ranking: np.ndarray, n_desired: int) -> np.ndarray:
    """The selected providers ``P̂_q``: the ``min(q.n, N)`` best ranked.

    Mirrors lines 9-10 of Algorithm 1 — when the consumer asks for more
    providers than exist, all of them are selected.
    """
    if n_desired < 1:
        raise ValueError(f"q.n must be at least 1, got {n_desired}")
    ranking = np.asarray(ranking)
    return ranking[: min(n_desired, ranking.size)]
