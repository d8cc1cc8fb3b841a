"""Consumer characterisation (Section 3.1 of the paper).

A consumer judges the system along three axes, all computed over its
``k`` last issued queries (the set ``IQ_k_c``):

* **Adequation** ``δa(c)`` — "how well do my expectations correspond to
  the providers that were able to deal with my last queries?"
  (Equation 1 / Definition 1).
* **Satisfaction** ``δs(c)`` — "how far do the providers that have dealt
  with my last queries meet my expectations?" (Equation 2 /
  Definition 2).
* **Allocation satisfaction** ``δas(c) = δs(c) / δa(c)`` — "am I
  satisfied with the job done by the query-allocation process?"
  (Definition 3).  Above 1 the mediator works *for* the consumer, below 1
  it punishes them, exactly 1 is neutral.

The paper develops the definitions for *intentions* (public); the same
maths applies verbatim to private *preferences* (Section 3 notes there is
no technical difference).  :class:`ConsumerProfile` therefore accepts any
value vector in ``[-1, 1]``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.model.memory import InteractionMemory

__all__ = [
    "ConsumerProfile",
    "query_adequation",
    "query_satisfaction",
]


def query_adequation(intentions_to_candidates: Sequence[float]) -> float:
    """Per-query adequation ``δa(c, q)`` (Equation 1).

    The average of the consumer's shown intentions towards the *whole*
    candidate set ``P_q``, rescaled from ``[-1, 1]`` to ``[0, 1]``.

    Parameters
    ----------
    intentions_to_candidates:
        ``CI_q[p]`` for every ``p ∈ P_q``; must be non-empty.
    """
    values = np.asarray(intentions_to_candidates, dtype=float)
    if values.size == 0:
        raise ValueError("P_q must contain at least one provider")
    # The sum-then-divide ``ndarray.mean`` computes, minus its wrapper.
    return (float(np.add.reduce(values)) / values.size + 1.0) / 2.0


def query_satisfaction(
    intentions_to_selected: float | Sequence[float], n_desired: int
) -> float:
    """Per-query satisfaction ``δs(c, q)`` (Equation 2).

    The consumer's intentions towards the providers that actually got the
    query, summed and divided by ``q.n`` — the number of results the
    consumer *desired* — then rescaled to ``[0, 1]``.  Dividing by
    ``q.n`` rather than by the number of selected providers is the
    paper's way of accounting for consumers that wanted more results than
    they got.

    Parameters
    ----------
    intentions_to_selected:
        ``CI_q[p]`` for every ``p ∈ P̂_q`` (the selected providers).  May
        be empty (no provider selected → satisfaction 0.5, i.e. the
        neutral rescaling of a zero sum).  A lone ``float`` is the one
        selected provider's (always, at ``q.n = 1``).
    n_desired:
        ``q.n ≥ 1``.
    """
    if n_desired < 1:
        raise ValueError(f"q.n must be at least 1, got {n_desired}")
    if type(intentions_to_selected) is float:
        # The sum of one intention is that intention.
        return (intentions_to_selected / n_desired + 1.0) / 2.0
    values = np.asarray(intentions_to_selected, dtype=float)
    if values.size > n_desired:
        raise ValueError(
            f"{values.size} providers selected but only {n_desired} desired"
        )
    total = float(values.sum()) if values.size else 0.0
    return (total / n_desired + 1.0) / 2.0


class ConsumerProfile:
    """Sliding-window characterisation of one consumer.

    Records, for each issued query, the per-query adequation and
    satisfaction, and exposes the long-run Definitions 1-3 over the last
    ``k`` queries.

    Parameters
    ----------
    k:
        Window size (``conSatSize`` in Table 2; 200 in the paper's
        simulations).
    initial_satisfaction:
        The value reported while the memory is still empty
        (``iniSatisfaction`` in Table 2; 0.5 in the paper).  The paper
        initialises participants at 0.5 and lets the value evolve.
    """

    __slots__ = ("_adequations", "_initial", "_satisfactions")

    def __init__(self, k: int, initial_satisfaction: float = 0.5) -> None:
        if not 0.0 <= initial_satisfaction <= 1.0:
            raise ValueError(
                f"initial satisfaction must be in [0, 1], got {initial_satisfaction}"
            )
        self._adequations = InteractionMemory(k)
        self._satisfactions = InteractionMemory(k)
        self._initial = float(initial_satisfaction)

    @property
    def k(self) -> int:
        """The window size."""
        return self._adequations.capacity

    @property
    def queries_remembered(self) -> int:
        """How many issued queries are currently in the window."""
        return len(self._adequations)

    def record_query(
        self,
        intentions_to_candidates: Sequence[float],
        intentions_to_selected: Sequence[float],
        n_desired: int,
    ) -> tuple[float, float]:
        """Record the allocation of one issued query.

        Returns the per-query ``(δa(c, q), δs(c, q))`` pair that entered
        the window, which callers may log.
        """
        adequation = query_adequation(intentions_to_candidates)
        satisfaction = query_satisfaction(intentions_to_selected, n_desired)
        self._adequations.push(adequation)
        self._satisfactions.push(satisfaction)
        return adequation, satisfaction

    def adequation(self) -> float:
        """``δa(c)`` (Definition 1) over the window; initial value if empty."""
        return self._adequations.mean(default=self._initial)

    def satisfaction(self) -> float:
        """``δs(c)`` (Definition 2) over the window; initial value if empty."""
        return self._satisfactions.mean(default=self._initial)

    def allocation_satisfaction(self) -> float:
        """``δas(c) = δs(c) / δa(c)`` (Definition 3).

        When adequation is exactly zero the ratio is undefined in the
        paper; we return ``inf`` if the consumer nevertheless obtained
        positive satisfaction (the method over-delivered against an
        impossible baseline) and the neutral ``1.0`` otherwise.
        """
        adequation = self.adequation()
        satisfaction = self.satisfaction()
        if adequation == 0.0:
            return float("inf") if satisfaction > 0.0 else 1.0
        return satisfaction / adequation

    def is_punished(self) -> bool:
        """Whether the allocation method currently punishes this consumer.

        Section 6.3.2 uses exactly this predicate as the consumer
        departure rule: a consumer leaves, by dissatisfaction, when its
        satisfaction is smaller than its adequation.
        """
        return self.satisfaction() < self.adequation()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ConsumerProfile(k={self.k}, δa={self.adequation():.3f}, "
            f"δs={self.satisfaction():.3f})"
        )
