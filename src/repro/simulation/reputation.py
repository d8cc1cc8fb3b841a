"""Provider reputation (Section 5.1 of the paper).

Reputation ``rep(p) ∈ [-1, 1]`` enters the consumer-intention formula
(Definition 7) weighted by ``1 - υ``.  The paper treats reputation as an
external signal whose origin is out of scope ("it is taken into account
as much as participants consider it important"), so this module provides
a small registry of static values — enough to exercise the ``υ``
trade-off in Definition 7 and the reputation example application.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReputationRegistry"]


class ReputationRegistry:
    """Holds one reputation value per provider.

    Parameters
    ----------
    n_providers:
        Population size.
    initial:
        Reputation values; scalar or per-provider array.  The default
        0.5 is a mildly positive prior, keeping Definition 7's positive
        branch reachable for liked providers.
    """

    def __init__(
        self,
        n_providers: int,
        initial: float | np.ndarray = 0.5,
    ) -> None:
        if n_providers <= 0:
            raise ValueError(f"n_providers must be positive, got {n_providers}")
        values = np.broadcast_to(
            np.asarray(initial, dtype=float), (n_providers,)
        ).copy()
        if values.min() < -1.0 or values.max() > 1.0:
            raise ValueError("reputations must lie in [-1, 1]")
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """Current reputations (live view; treat as read-only)."""
        return self._values

    def of(self, providers: np.ndarray) -> np.ndarray:
        """Reputations of a provider subset."""
        return self._values[providers]
