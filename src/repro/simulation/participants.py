"""Vectorised participant state (consumers, providers, and their views).

The object-level profiles in :mod:`repro.model` are the readable
reference; a simulation touching hundreds of providers per query needs
the same bookkeeping as flat arrays.  :class:`ConsumerPool` and
:class:`ProviderPool` wrap :class:`repro.model.memory.RowRingLog` with
the Section 3 semantics (including the strict Definition 4/5 zero for
empty windows and the ``SQ ⊆ PQ`` coupling) and add activity masks for
the autonomy experiments.

Each view is refreshed as often as it is read.  A pushed proposal
changes every touched row's whole-window mean but only changes the
performed-only mean of the rows that performed it or evicted a
performed entry — a handful per query.  The satisfaction views, read on
every arrival, are therefore written eagerly on exactly those rows (for
a consumer, its one row), from the sums and counts the push hands back;
the adequation views of both pools, read only by samples, departure
checks and the final arrays, are marked stale on every push and rebuilt
wholesale when read.  Every refresh applies the same elementwise
arithmetic as a wholesale recompute, so the views are bit-identical to
the pre-cache behaviour; when the underlying log resyncs its running
sums (drift cancellation), everything is rebuilt wholesale.

:meth:`ProviderPool.record_proposals` owns the clip of the raw
Definition 8 intentions: it clips them straight into a preallocated
(providers × channels) block beside the preferences and pushes that
block, with the positions of the providers that performed the query.

The test suite cross-checks the pools against the scalar profiles on
random interaction traces.
"""

from __future__ import annotations

import numpy as np

from repro.model.memory import RowRingLog

__all__ = ["ConsumerPool", "ProviderPool", "ratio_with_zero_convention"]


def ratio_with_zero_convention(
    numerators: np.ndarray, denominators: np.ndarray
) -> np.ndarray:
    """``δas = δs / δa`` with the Definition 3/6 zero-adequation convention.

    Where adequation is zero, the ratio is ``inf`` if satisfaction is
    positive and the neutral ``1.0`` otherwise (see the profile classes
    for the rationale).
    """
    numerators = np.asarray(numerators, dtype=float)
    denominators = np.asarray(denominators, dtype=float)
    out = np.empty_like(numerators)
    zero = denominators == 0.0
    np.divide(numerators, denominators, out=out, where=~zero)
    out[zero & (numerators > 0.0)] = np.inf
    out[zero & (numerators <= 0.0)] = 1.0
    return out


class ConsumerPool:
    """State of the whole consumer population.

    Each consumer remembers its ``k`` last issued queries as per-query
    (adequation, satisfaction) pairs in ``[0, 1]`` (Equations 1-2), and
    reports the Definition 1-3 aggregates; the configured initial
    satisfaction is reported while a window is still empty (Table 2's
    ``iniSatisfaction``).
    """

    def __init__(
        self, n_consumers: int, memory: int, initial_satisfaction: float
    ) -> None:
        if n_consumers <= 0:
            raise ValueError(f"n_consumers must be positive, got {n_consumers}")
        self._log = RowRingLog(
            rows=n_consumers,
            capacity=memory,
            channels=("adequation", "satisfaction"),
        )
        self._initial = float(initial_satisfaction)
        self._active = np.ones(n_consumers, dtype=bool)
        self._epoch = 0
        # Telemetry tally only; never feeds back into the simulation.
        self.view_rebuilds = 0
        self._refresh_all()

    @property
    def size(self) -> int:
        return self._log.rows

    @property
    def active(self) -> np.ndarray:
        """Boolean activity mask (live view; mutate via :meth:`deactivate`)."""
        return self._active

    @property
    def epoch(self) -> int:
        """Bumped whenever :meth:`deactivate` flips the activity mask.

        Callers caching anything derived from ``active`` (the engine's
        candidate sets) compare epochs instead of rescanning the mask.
        """
        return self._epoch

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self._active)

    def deactivate(self, consumer: int) -> None:
        """Mark one consumer as departed."""
        self._active[consumer] = False
        self._epoch += 1

    def record_query(
        self, consumer: int, adequation: float, satisfaction: float
    ) -> None:
        """Push one issued query's per-query characteristics."""
        # Channel order matches the log's ("adequation", "satisfaction").
        # Definitions 1-2 average over every issued query, so the log
        # keeps no performed subset for consumers: nothing reads one.
        count, (_, total), _ = self._log.push_scalar(
            consumer, (adequation, satisfaction), performed=False
        )
        if self._log.generation != self._generation:
            self._refresh_all()
            return
        # The satisfaction view is read on every arrival, so its one
        # dirty row is written now, from the sum and count the push
        # wrote (never zero after a push); the adequation view is read
        # only by samples, departure checks and the final arrays, so it
        # is rebuilt then.  The comparisons are np.clip on the finite
        # means the view holds.
        self._adequation_stale = True
        mean = total / count
        self._satisfaction_view[consumer] = (
            0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean
        )

    def push_stats(self) -> dict[str, int]:
        """The underlying ring log's push-path tallies."""
        return self._log.push_stats()

    def _refresh_all(self) -> None:
        self.view_rebuilds += 1
        # Running-sum drift can nudge a mean a few ulps outside the
        # contractual [0, 1] range; clip.
        self._satisfaction_view = np.clip(
            self._log.mean_all("satisfaction", default=self._initial), 0.0, 1.0
        )
        self._refresh_adequations()
        self._generation = self._log.generation

    def _refresh_adequations(self) -> None:
        self.view_rebuilds += 1
        self._adequation_view = np.clip(
            self._log.mean_all("adequation", default=self._initial), 0.0, 1.0
        )
        self._adequation_stale = False

    def _current_adequations(self) -> np.ndarray:
        if self._adequation_stale:
            self._refresh_adequations()
        return self._adequation_view

    def adequations(self) -> np.ndarray:
        """``δa(c)`` per consumer (Definition 1)."""
        return self._current_adequations().copy()

    def satisfactions(self) -> np.ndarray:
        """``δs(c)`` per consumer (Definition 2)."""
        return self._satisfaction_view.copy()

    def satisfaction_of(self, consumer: int) -> float:
        """``δs(c)`` of one consumer — O(1) from the maintained view."""
        return float(self._satisfaction_view[consumer])

    def allocation_satisfactions(self) -> np.ndarray:
        """``δas(c)`` per consumer (Definition 3)."""
        return ratio_with_zero_convention(
            self._satisfaction_view, self._current_adequations()
        )

    def queries_remembered(self) -> np.ndarray:
        return self._log.counts()


class ProviderPool:
    """State of the whole provider population.

    Each provider remembers its ``k`` last *proposed* queries with two
    channels — the (clipped) intention it showed and its private
    preference — plus the performed flag.  Definition 4 aggregates over
    the whole window, Definition 5 over the performed subset only, in
    either basis.

    ``warm_start_entries`` synthetic neutral interactions (value 0,
    performed) are pre-loaded so satisfaction starts at the configured
    initial value and *evolves*, ageing out like real interactions —
    the Table 2 initialisation.
    """

    _BASES = ("intention", "preference")

    def __init__(
        self,
        n_providers: int,
        memory: int,
        initial_satisfaction: float,
        warm_start_entries: int = 1,
    ) -> None:
        if n_providers <= 0:
            raise ValueError(f"n_providers must be positive, got {n_providers}")
        self._log = RowRingLog(
            rows=n_providers,
            capacity=memory,
            channels=("intention", "preference"),
        )
        self._initial = float(initial_satisfaction)
        self._active = np.ones(n_providers, dtype=bool)
        self._epoch = 0
        # Telemetry tally only; never feeds back into the simulation.
        self.view_rebuilds = 0
        # The (providers x channels) block record_proposals fills and
        # the log copies from, with its full-width columns.
        self._block = np.empty((n_providers, len(self._BASES)), dtype=float)
        self._block_columns = (self._block[:, 0], self._block[:, 1])
        # Neutral warm-start: intention/preference 0 maps to the 0.5
        # initial satisfaction after the (x+1)/2 rescale.  A non-0.5
        # initial value seeds the equivalent constant instead.
        seed_value = 2.0 * self._initial - 1.0
        for _ in range(warm_start_entries):
            self._log.push_all_rows(
                {
                    "intention": np.full(n_providers, seed_value),
                    "preference": np.full(n_providers, seed_value),
                },
                performed=np.ones(n_providers, dtype=bool),
            )
        self._refresh_all()

    @property
    def size(self) -> int:
        return self._log.rows

    @property
    def active(self) -> np.ndarray:
        """Boolean activity mask (live view; mutate via :meth:`deactivate`)."""
        return self._active

    @property
    def epoch(self) -> int:
        """Bumped whenever :meth:`deactivate` flips the activity mask.

        The engine's cached candidate sets key their validity on this:
        between departures the active set is constant, so candidates
        need no recomputation.
        """
        return self._epoch

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self._active)

    def deactivate(self, provider: int) -> None:
        """Mark one provider as departed."""
        self._active[provider] = False
        self._epoch += 1

    def reactivate(self, provider: int) -> None:
        """Return a fault-downed provider to service.

        Bumps the epoch exactly as :meth:`deactivate` does, so every
        cache keyed on it (the engine's candidate sets and their
        identity-keyed dependents) re-derives the active set.  Only the
        fault layer calls this — permanent autonomy departures are never
        reversed.
        """
        self._active[provider] = True
        self._epoch += 1

    def record_proposals(
        self,
        providers: np.ndarray,
        intentions: np.ndarray,
        preferences: np.ndarray,
        performed_at: np.ndarray,
    ) -> None:
        """Push one proposed query into the given providers' windows.

        ``intentions`` are the raw Definition 8 values; they are clipped
        here to ``[-1, 1]``, the Section 2 range the satisfaction model
        is defined over (values already in range pass unchanged).
        ``performed_at`` holds the distinct positions in ``providers``
        of the providers the query was allocated to.
        """
        # Clip straight into the preallocated block the log copies
        # from, beside the preferences, in the log's channel order
        # ("intention", "preference"); min/max is np.clip without its
        # dispatch wrapper.
        block = self._block
        if len(providers) == len(block):
            shown, preferred = self._block_columns
        else:
            block = block[: len(providers)]
            shown, preferred = block[:, 0], block[:, 1]
        np.maximum(intentions, -1.0, out=shown)
        np.minimum(shown, 1.0, out=shown)
        preferred[...] = preferences
        moved = self._log.push_block(providers, block, performed_at)
        if self._log.generation != self._generation:
            self._refresh_all()
            return
        # Every pushed row's whole-window mean moved: the adequation
        # views go stale and are rebuilt on next read (once per sample
        # or departure check).  The performed-only means moved just for
        # the rows push reported — the providers that performed this
        # query or evicted a performed entry — so the satisfaction
        # views, read on every arrival, take those rows' new means from
        # the sums and counts the push wrote.  The comparisons are
        # np.clip on the finite values the views hold; an empty window
        # reads -1, i.e. 0 after the rescale.
        self._adequation_stale = True
        columns = self._satisfaction_columns
        for row, count, sums in moved:
            for view, total in zip(columns, sums):
                value = (total / count + 1.0) / 2.0 if count else 0.0
                view[row] = 0.0 if value < 0.0 else 1.0 if value > 1.0 else value

    def push_stats(self) -> dict[str, int]:
        """The underlying ring log's push-path tallies."""
        return self._log.push_stats()

    def _refresh_all(self) -> None:
        self.view_rebuilds += 1
        self._satisfaction_views = {}
        for basis in self._BASES:
            # Running-sum drift can nudge a mean a few ulps outside
            # [-1, 1]; the model's range is contractual, so clip.
            means_performed = self._log.mean_performed(basis, default=-1.0)
            self._satisfaction_views[basis] = np.clip(
                (means_performed + 1.0) / 2.0, 0.0, 1.0
            )
        # The same views in the log's channel order, for row refreshes.
        self._satisfaction_columns = tuple(
            self._satisfaction_views[basis] for basis in self._log.channels
        )
        self._refresh_adequations()
        self._generation = self._log.generation

    def _refresh_adequations(self) -> None:
        self.view_rebuilds += 1
        self._adequation_views = {}
        for basis in self._BASES:
            means_all = self._log.mean_all(basis, default=-1.0)
            self._adequation_views[basis] = np.clip(
                (means_all + 1.0) / 2.0, 0.0, 1.0
            )
        self._adequation_stale = False

    def _adequation_view(self, basis: str) -> np.ndarray:
        if self._adequation_stale:
            self._refresh_adequations()
        return self._adequation_views[basis]

    def adequations(self, basis: str = "intention") -> np.ndarray:
        """``δa(p)`` per provider (Definition 4); 0 for empty windows."""
        return self._adequation_view(self._channel(basis)).copy()

    def satisfactions(self, basis: str = "intention") -> np.ndarray:
        """``δs(p)`` per provider (Definition 5); 0 when nothing performed.

        The strict zero matters: a provider that performed none of its
        last ``k`` proposed queries is maximally dissatisfied, which is
        the paper's punishment mechanism under preference-blind
        allocation.
        """
        return self._satisfaction_views[self._channel(basis)].copy()

    def satisfactions_of(
        self, providers: np.ndarray, basis: str = "intention"
    ) -> np.ndarray:
        """``δs(p)`` for a provider subset, gathered from the view."""
        return self._satisfaction_views[self._channel(basis)][providers]

    def allocation_satisfactions(self, basis: str = "intention") -> np.ndarray:
        """``δas(p)`` per provider (Definition 6)."""
        basis = self._channel(basis)
        return ratio_with_zero_convention(
            self._satisfaction_views[basis], self._adequation_view(basis)
        )

    def proposed_counts(self) -> np.ndarray:
        """Window fill per provider (includes warm-start entries)."""
        return self._log.counts()

    def performed_counts(self) -> np.ndarray:
        """Performed entries in the window (includes warm-start entries)."""
        return self._log.performed_counts()

    @staticmethod
    def _channel(basis: str) -> str:
        if basis not in ("intention", "preference"):
            raise ValueError(
                f"basis must be 'intention' or 'preference', got {basis!r}"
            )
        return basis
