"""Matchmaking: finding the candidate set ``P_q`` (Section 2).

The paper assumes a sound and complete matchmaking procedure exists
(citing [11, 14]) and keeps it out of scope; its experiments further
assume every provider can perform every query.  We provide the same
abstraction so the allocation layer never hard-codes that assumption:

* :class:`UniversalMatchmaker` — the paper's experimental setting: every
  *active* provider can treat every query.
* :class:`CapabilityMatchmaker` — a per-query-class capability matrix,
  useful for example applications where providers specialise.

Both only ever return active (non-departed) providers, and the engine
treats an empty candidate set as an unserved query (with autonomy, the
whole population can leave).
"""

from __future__ import annotations

import numpy as np

from repro.simulation.queries import Query

__all__ = ["CapabilityMatchmaker", "Matchmaker", "UniversalMatchmaker"]


class Matchmaker:
    """Interface: map a query to the provider indices able to treat it."""

    #: True when :meth:`candidates` is a pure function of the query's
    #: *class* and the active mask.  The engine then caches candidate
    #: sets per query class between departures (the only events that
    #: change the mask).  A matchmaker depending on anything else — the
    #: issuing consumer, time, per-query content — must leave this False
    #: to stay on the uncached path.
    cacheable_by_class: bool = False

    def candidates(self, query: Query, active: np.ndarray) -> np.ndarray:
        """The set ``P_q`` restricted to currently active providers.

        Parameters
        ----------
        query:
            The incoming query.
        active:
            Boolean mask over the provider population.

        Returns
        -------
        numpy.ndarray
            1-D integer array of active provider indices, strictly
            increasing; possibly empty.  The engine raises
            ``ValueError`` on anything else.
        """
        raise NotImplementedError


class UniversalMatchmaker(Matchmaker):
    """Every active provider can treat every query (Section 6.1)."""

    cacheable_by_class = True

    def candidates(self, query: Query, active: np.ndarray) -> np.ndarray:
        return np.flatnonzero(active)


class CapabilityMatchmaker(Matchmaker):
    """Providers declare, per query class, whether they can treat it.

    Parameters
    ----------
    capability:
        Boolean matrix of shape ``(n_providers, n_query_classes)``;
        ``capability[p, k]`` means provider ``p`` can treat class ``k``.
        Sound and complete by construction: the returned set is exactly
        the capable subset, no false positives or negatives.
    """

    cacheable_by_class = True

    def __init__(self, capability: np.ndarray) -> None:
        capability = np.asarray(capability, dtype=bool)
        if capability.ndim != 2:
            raise ValueError(
                f"capability must be 2-D, got shape {capability.shape}"
            )
        if not capability.any(axis=0).all():
            raise ValueError(
                "every query class needs at least one capable provider "
                "(the paper only considers feasible queries)"
            )
        self._capability = capability

    def candidates(self, query: Query, active: np.ndarray) -> np.ndarray:
        if not 0 <= query.klass < self._capability.shape[1]:
            raise ValueError(f"unknown query class {query.klass}")
        mask = self._capability[:, query.klass] & active
        return np.flatnonzero(mask)
