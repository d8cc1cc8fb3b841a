"""The *Mariposa-like* economic baseline (Section 6.2.2 of the paper).

Mariposa [22] allocates queries through a bidding process: a broker
requests bids from providers, providers bid for the queries they want,
and the broker selects the set of bids whose aggregate price and delay
fall under a *bid curve* supplied by the consumer.  To ensure a crude
form of load balancing, providers modify their bids with their current
load (``bid × load``).

The paper implements "a Mariposa-like method" without giving formulas,
so this is a documented substitution (DESIGN.md §2.3):

* **Base bid** — decreasing in the provider's preference for the query:
  an interested provider bids aggressively to win the business.  With
  spread ``s``, the bid at preference -1 is ``s`` times the bid at
  preference +1.
* **Load modifier** — the quoted bid is ``base × (1 + w · Ut(p))``,
  the multiplicative load adjustment the paper describes.
* **Bid curve** — the consumer accepts the cheapest bids whose estimated
  delay (queue backlog plus service time, which providers can quote
  exactly) stays under ``max_delay``; if too few bids qualify, the
  remainder are filled cheapest-first regardless of delay (queries must
  be treated if possible, Section 2).

This reproduces the qualitative behaviour the paper reports: the most
adapted providers underbid everyone, win a disproportionate share, and
drift into overutilisation that the load modifier only partially damps.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.base import AllocationMethod, AllocationRequest
from repro.core.ranking import checked_argmax, rank_providers, top_selection

__all__ = ["MariposaMethod"]


class MariposaMethod(AllocationMethod):
    """Bidding broker with load-modified bids and a delay bid curve.

    Parameters
    ----------
    base_spread:
        Ratio between the most and least expensive base bids (> 1).
    load_weight:
        Weight ``w`` of utilisation in the load modifier.
    max_delay:
        The consumer bid curve: maximum acceptable estimated delay in
        seconds.
    """

    name = "mariposa"

    def __init__(
        self,
        base_spread: float = 2.5,
        load_weight: float = 1.0,
        max_delay: float = 15.0,
        tie_break: str = "random",
    ) -> None:
        if base_spread <= 1:
            raise ValueError(f"base_spread must exceed 1, got {base_spread}")
        if load_weight < 0:
            raise ValueError(f"load_weight must be non-negative, got {load_weight}")
        if max_delay <= 0:
            raise ValueError(f"max_delay must be positive, got {max_delay}")
        self._spread = float(base_spread)
        self._load_weight = float(load_weight)
        self._max_delay = float(max_delay)
        self._tie_break = tie_break

    def bids(self, request: AllocationRequest) -> np.ndarray:
        """The load-modified bid each candidate quotes for this query."""
        # Map preference 1 → 1.0 and preference -1 → spread, linearly.
        base = 1.0 + (self._spread - 1.0) * (
            (1.0 - request.provider_preferences) / 2.0
        )
        load_factor = 1.0 + self._load_weight * request.utilizations
        return base * load_factor

    def select(self, request: AllocationRequest) -> np.ndarray:
        bids = self.bids(request)
        delays = request.backlog_seconds + (
            request.query.cost_units / request.capacities
        )
        qualified = delays <= self._max_delay
        n_needed = request.n_to_select
        if n_needed == 1:
            # The paper's q.n = 1: the winner is the first qualified bid
            # of the cheapest-first ranking below, or its head when none
            # qualifies.  Sinking the disqualified offers to -inf (bids
            # are finite) lets top_selection's linear scan pick exactly
            # that, from the same jitter draw and in the same (bid,
            # jitter, index) order, without sorting every bid.
            # The sink would hide a NaN offer, so it is checked first.
            offers = -bids
            if np.count_nonzero(qualified):
                checked_argmax(offers)
                offers = np.where(qualified, offers, -np.inf)
            return top_selection(
                offers, 1, rng=request.rng, tie_break=self._tie_break
            )
        # Cheapest-first ranking: rank on negated bids.
        ranking = rank_providers(
            -bids, rng=request.rng, tie_break=self._tie_break
        )
        qualified = qualified[ranking]
        winners = ranking[qualified][:n_needed]
        if winners.size < n_needed:
            # Not enough bids under the curve: fill with the cheapest
            # disqualified ones — the query must still be treated.
            backfill = ranking[~qualified][: n_needed - winners.size]
            winners = np.concatenate((winners, backfill))
        return winners
