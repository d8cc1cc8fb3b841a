"""Bounded interaction memories (the paper's "k last interactions").

Section 3 of the paper defines every participant characteristic
(adequation, satisfaction, allocation satisfaction) as an average over the
participant's *k last interactions* with the system: the k last issued
queries for a consumer, the k last proposed queries for a provider.

This module provides the storage for those sliding windows:

* :class:`InteractionMemory` — a scalar ring buffer with O(1) running
  mean, used by the object-level profiles in
  :mod:`repro.model.consumer_profile` and
  :mod:`repro.model.provider_profile`.
* :class:`RowRingLog` — a vectorised bank of per-entity ring buffers with
  several value channels and per-channel running sums, used on the
  simulator hot path where one query touches hundreds of providers at
  once.  The channels share one stacked storage block so a push updates
  every channel's running sums with single (channels × rows) array
  operations instead of one set of operations per channel.

Running sums accumulate floating-point drift, so both classes refresh
their sums from the raw buffer after a fixed number of pushes; tests
assert the running mean never diverges from a recomputed one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["InteractionMemory", "RowRingLog"]

#: Refresh running sums from the raw buffer every this many pushes.
_RESYNC_INTERVAL = 4096

#: A vector push whose performed bookkeeping touches at most this many
#: rows (the selected provider plus the odd eviction of a performed
#: entry) updates the performed sums row by row; above it, e.g. when the
#: warm-start slot evicts every row at once, one masked full-width
#: update is cheaper.
_SPARSE_ROWS = 8


class InteractionMemory:
    """A fixed-capacity ring buffer of floats with an O(1) running mean.

    Models the memory a single participant keeps of its ``k`` last
    interactions (footnote 3 of the paper: ``k`` may differ per
    participant).  Once more than ``capacity`` values have been pushed,
    the oldest value silently falls out of the window, exactly as the
    paper's sliding assessment requires.

    Parameters
    ----------
    capacity:
        The ``k`` of the paper — how many interactions are remembered.
        Must be a positive integer.

    Examples
    --------
    >>> mem = InteractionMemory(capacity=2)
    >>> mem.push(1.0)
    >>> mem.push(0.0)
    >>> mem.push(0.5)      # evicts the 1.0
    >>> mem.mean()
    0.25
    """

    __slots__ = ("_buffer", "_capacity", "_count", "_pos", "_pushes", "_sum")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = int(capacity)
        self._buffer = np.zeros(self._capacity, dtype=float)
        self._pos = 0
        self._count = 0
        self._sum = 0.0
        self._pushes = 0

    @property
    def capacity(self) -> int:
        """The window size ``k``."""
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        # An empty memory is falsy, mirroring standard containers.
        return self._count > 0

    def __iter__(self) -> Iterator[float]:
        return iter(self.values())

    def push(self, value: float) -> None:
        """Record one interaction, evicting the oldest if at capacity."""
        if self._count == self._capacity:
            self._sum -= self._buffer[self._pos]
        else:
            self._count += 1
        self._buffer[self._pos] = value
        self._sum += value
        self._pos = (self._pos + 1) % self._capacity
        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()

    def extend(self, values: Sequence[float]) -> None:
        """Push several interactions in chronological order.

        Bulk path: instead of ``len(values)`` scalar pushes, the ring
        slots the new values land in are computed once and written with
        a single vectorised assignment (only the last ``capacity``
        values can survive, so older ones are never written at all).
        The running sum is refreshed from the raw buffer afterwards, so
        it is at least as accurate as the scalar path's incremental sum;
        the remembered window is bit-identical.
        """
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size == 0:
            return
        capacity = self._capacity
        tail = arr[-capacity:]
        slots = (self._pos + np.arange(arr.size - tail.size, arr.size)) % capacity
        self._buffer[slots] = tail
        self._pos = (self._pos + arr.size) % capacity
        self._count = min(self._count + arr.size, capacity)
        self._pushes += arr.size
        self._resync()

    def mean(self, default: float = 0.0) -> float:
        """Average of the remembered window, or ``default`` when empty."""
        if self._count == 0:
            return default
        return self._sum / self._count

    def values(self) -> np.ndarray:
        """The remembered values, oldest first (a copy)."""
        if self._count < self._capacity:
            return self._buffer[: self._count].copy()
        return np.concatenate(
            (self._buffer[self._pos :], self._buffer[: self._pos])
        )

    def clear(self) -> None:
        """Forget every interaction."""
        self._buffer[:] = 0.0
        self._pos = 0
        self._count = 0
        self._sum = 0.0

    def _resync(self) -> None:
        if self._count < self._capacity:
            self._sum = float(self._buffer[: self._count].sum())
        else:
            self._sum = float(self._buffer.sum())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"InteractionMemory(capacity={self._capacity}, "
            f"len={self._count}, mean={self.mean():.4f})"
        )


class RowRingLog:
    """A bank of per-row ring buffers with named channels and masked sums.

    One row per entity (e.g. one per provider), each row a sliding window
    of the entity's last ``capacity`` interactions.  Every interaction
    carries one float per *channel* (e.g. the shown intention and the
    private preference) plus a boolean *performed* flag.  The class keeps,
    per row and channel, a running sum over the whole window and a running
    sum restricted to performed entries, which is exactly what
    Definitions 4 and 5 of the paper need (adequation averages over all
    proposed queries, satisfaction only over the performed subset).

    All mutating operations accept arrays of row indices so that a single
    query that is proposed to hundreds of providers costs one vectorised
    call.

    Parameters
    ----------
    rows:
        Number of entities.
    capacity:
        Window size ``k`` shared by all rows.
    channels:
        Names of the float channels stored per interaction.
    """

    def __init__(self, rows: int, capacity: int, channels: Sequence[str]) -> None:
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not channels:
            raise ValueError("at least one channel is required")
        if len(set(channels)) != len(channels):
            raise ValueError(f"duplicate channel names in {channels!r}")
        self._rows = int(rows)
        self._capacity = int(capacity)
        self._channels = tuple(channels)
        self._channel_set = frozenset(self._channels)
        self._channel_index = {
            name: index for index, name in enumerate(self._channels)
        }
        n_channels = len(self._channels)
        # Slot-major, channel-last storage: ``_data[slot]`` is the
        # contiguous (rows x channels) plane every row writes its
        # ``slot``-th interaction into.  Rows that are always pushed
        # together stay in ring lockstep, so the common full-population
        # push touches exactly one contiguous plane (see _push_many);
        # the channel axis rides along in the same operations.
        self._data = np.zeros(
            (self._capacity, self._rows, n_channels), dtype=float
        )
        self._performed = np.zeros((self._capacity, self._rows), dtype=bool)
        self._pos = np.zeros(self._rows, dtype=np.int64)
        self._count = np.zeros(self._rows, dtype=np.int64)
        self._sum_all = np.zeros((self._rows, n_channels), dtype=float)
        self._sum_performed = np.zeros((self._rows, n_channels), dtype=float)
        self._count_performed = np.zeros(self._rows, dtype=np.int64)
        self._pushes = 0
        self._generation = 0
        self._empty_rows = np.empty(0, dtype=np.int64)
        self._arange = np.arange(self._rows)
        # Identity cache: the last rows array verified to be arange(rows)
        # (callers like the engine reuse one cached candidates array, so
        # an `is` check replaces an elementwise comparison per push).
        self._known_full_rows: np.ndarray | None = None
        # Lockstep bookkeeping.  _uniform_slot is the ring slot every
        # row currently sits at while the whole bank advances together
        # (None once any partial push breaks global lockstep); _all_full
        # latches once every window has filled — counts never decrease,
        # so from then on pushes skip the count update.
        self._uniform_slot: int | None = 0
        self._all_full = False
        # Push-path tallies (telemetry reads these; plain ints, always
        # maintained — they never feed back into the simulation).
        self.uniform_pushes = 0
        self.scattered_pushes = 0
        self.scalar_pushes = 0

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def channels(self) -> tuple[str, ...]:
        return self._channels

    @property
    def generation(self) -> int:
        """Bumped whenever the running sums are rebuilt wholesale.

        A drift-cancelling :meth:`_resync` rewrites the sums of *every*
        row, so any caller maintaining derived per-row caches (the
        participant pools) must discard them when this changes; between
        generations only the rows reported by :meth:`push` are dirtied.
        """
        return self._generation

    def push_stats(self) -> dict[str, int]:
        """How often each push path ran (uniform fast path vs rest)."""
        return {
            "uniform": self.uniform_pushes,
            "scattered": self.scattered_pushes,
            "scalar": self.scalar_pushes,
        }

    def counts(self) -> np.ndarray:
        """Per-row number of remembered interactions (copy)."""
        return self._count.copy()

    def performed_counts(self) -> np.ndarray:
        """Per-row number of remembered *performed* interactions (copy)."""
        return self._count_performed.copy()

    def push(
        self,
        row_indices: np.ndarray,
        values: dict[str, np.ndarray],
        performed: np.ndarray,
    ) -> np.ndarray:
        """Record one interaction for each row in ``row_indices``.

        Parameters
        ----------
        row_indices:
            Integer array of **distinct** rows that observed this
            interaction.  Distinctness is a hard requirement, not a
            hint: the whole-window sums accumulate with fancy indexing,
            which silently drops duplicate contributions, while the
            performed sums apply every one of them (no error is
            raised), corrupting every mean until the next resync.
        values:
            Mapping from channel name to a float array aligned with
            ``row_indices``.
        performed:
            Boolean array aligned with ``row_indices``; ``True`` where the
            row actually performed the interaction (for providers: the
            query was allocated to them).

        Returns
        -------
        numpy.ndarray
            The subset of ``row_indices`` whose *performed* running sums
            changed — rows that performed this interaction or evicted a
            performed one.  (Every pushed row's whole-window sums change,
            so there is no point reporting those.)  Callers maintaining
            performed-mean caches only need to refresh these rows.
        """
        rows = np.asarray(row_indices, dtype=np.int64)
        if rows.size == 0:
            return self._empty_rows
        performed = np.asarray(performed, dtype=bool)
        if performed.shape != rows.shape:
            raise ValueError("performed must align with row_indices")
        if values.keys() != self._channel_set:
            missing = set(self._channels) ^ set(values)
            raise ValueError(f"channel mismatch: {sorted(missing)}")

        if rows.size == 1:
            dirty = self._push_one(int(rows[0]), values, bool(performed[0]))
            dirty_rows = rows if dirty else self._empty_rows
        else:
            dirty_rows = self._push_many(rows, values, performed)

        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return dirty_rows

    def _stack_values(
        self, values: dict[str, np.ndarray], shape: tuple[int, ...]
    ) -> np.ndarray:
        stacked = np.empty(shape + (len(self._channels),), dtype=float)
        for name, index in self._channel_index.items():
            new = np.asarray(values[name], dtype=float)
            if new.shape != shape:
                raise ValueError(f"channel {name!r} must align with row_indices")
            stacked[..., index] = new
        return stacked

    def _is_all_rows(self, rows: np.ndarray) -> bool:
        if rows.size != self._rows:
            return False
        if rows is self._arange or rows is self._known_full_rows:
            return True
        if np.array_equal(rows, self._arange):
            self._known_full_rows = rows
            return True
        return False

    def _push_many(
        self,
        rows: np.ndarray,
        values: dict[str, np.ndarray],
        performed: np.ndarray,
    ) -> np.ndarray:
        new = self._stack_values(values, rows.shape)
        all_rows = self._is_all_rows(rows)
        if all_rows and self._uniform_slot is not None:
            # Global lockstep: the slot is known without touching _pos.
            return self._push_uniform_slot(
                rows, self._uniform_slot, new, performed, all_rows=True
            )
        pos = self._pos if all_rows else self._pos[rows]
        slot = pos[0]
        if (pos == slot).all():
            return self._push_uniform_slot(
                rows, int(slot), new, performed, all_rows=all_rows
            )
        self._uniform_slot = None
        return self._push_scattered(rows, pos, new, performed)

    def _push_uniform_slot(
        self,
        rows: np.ndarray,
        slot: int,
        new: np.ndarray,
        performed: np.ndarray,
        all_rows: bool,
    ) -> np.ndarray:
        # All pushed rows share one ring slot (they have been pushed in
        # lockstep since construction — the universal-matchmaker hot
        # path, including after departures shrink the set).  One
        # contiguous plane holds every outgoing and incoming value, so
        # the whole-window sums take a handful of dense (rows x
        # channels) operations with no scatter machinery at all.  A slot
        # a row has not filled yet holds 0.0 and False (the planes start
        # zeroed and each row fills its ring in order), so evicting it
        # subtracts exactly nothing: eviction needs no fill mask.  The
        # order of the sum updates (evict old, then add new) matches the
        # scattered path, so the running sums stay bit-identical
        # whichever path a push takes.
        self.uniform_pushes += 1
        plane = self._data[slot]
        performed_plane = self._performed[slot]
        capacity = self._capacity
        next_slot = (slot + 1) % capacity
        if all_rows:
            # ``plane`` is a live view: consumed before the overwrite.
            dirty = self._push_performed(
                rows, plane, performed_plane, new, performed
            )
            self._sum_all -= plane
            plane[...] = new
            self._sum_all += new
            performed_plane[...] = performed
            if not self._all_full:
                np.minimum(self._count + 1, capacity, out=self._count)
                if bool((self._count == capacity).all()):
                    self._all_full = True
            self._pos[...] = next_slot
            self._uniform_slot = next_slot
            return dirty
        old = plane[rows]
        dirty = self._push_performed(
            rows, old, performed_plane[rows], new, performed
        )
        self._sum_all[rows] -= old
        plane[rows] = new
        self._sum_all[rows] += new
        performed_plane[rows] = performed
        if not self._all_full:
            self._count[rows] = np.minimum(self._count[rows] + 1, capacity)
            if bool((self._count == capacity).all()):
                self._all_full = True
        self._pos[rows] = next_slot
        self._uniform_slot = None
        return dirty

    def _push_scattered(
        self,
        rows: np.ndarray,
        pos: np.ndarray,
        new: np.ndarray,
        performed: np.ndarray,
    ) -> np.ndarray:
        # General path: rows sit at different ring positions.  Rows are
        # distinct (see the push docstring), so plain fancy indexing
        # accumulates exactly like a duplicate-safe ufunc.at scatter
        # would, without its overhead; unfilled slots evict nothing, as
        # on the uniform path.
        self.scattered_pushes += 1
        old = self._data[pos, rows]
        dirty = self._push_performed(
            rows, old, self._performed[pos, rows], new, performed
        )
        # Evict the outgoing entry, then add the incoming one; the
        # channel axis rides along contiguously.
        self._sum_all[rows] -= old
        self._data[pos, rows] = new
        self._sum_all[rows] += new
        self._performed[pos, rows] = performed
        if not self._all_full:
            self._count[rows] = np.minimum(
                self._count[rows] + 1, self._capacity
            )
        self._pos[rows] = (pos + 1) % self._capacity
        return dirty

    def _push_performed(
        self,
        rows: np.ndarray,
        old: np.ndarray,
        old_performed: np.ndarray,
        new: np.ndarray,
        performed: np.ndarray,
    ) -> np.ndarray:
        # The performed-only sums and counts of a vector push: evict
        # ``old`` where the outgoing entry was performed, then add
        # ``new`` where the incoming one is (all arrays aligned with
        # ``rows``; ``old`` must still hold the outgoing values).  Only
        # those rows change — at q.n = 1 about two of hundreds — so they
        # are updated one by one, unless so many changed that one masked
        # full-width update is cheaper.  Either way every changed row
        # sees the same evict-then-add arithmetic.  Returns those rows,
        # in ``rows`` order.
        evicted = old_performed.nonzero()[0]
        admitted = performed.nonzero()[0]
        if evicted.size + admitted.size > _SPARSE_ROWS:
            self._sum_performed[rows] -= np.where(
                old_performed[:, None], old, 0.0
            )
            self._sum_performed[rows] += np.where(
                performed[:, None], new, 0.0
            )
            self._count_performed[rows] += performed.astype(
                np.int64
            ) - old_performed.astype(np.int64)
            return rows[old_performed | performed]
        sums = self._sum_performed
        counts = self._count_performed
        for at in evicted.tolist():
            row = rows[at]
            sums[row] -= old[at]
            counts[row] -= 1
        for at in admitted.tolist():
            row = rows[at]
            sums[row] += new[at]
            counts[row] += 1
        if not evicted.size:  # every push until the windows fill
            return rows[admitted]
        return rows[old_performed | performed]

    def push_scalar(
        self, row: int, values: Sequence[float], performed: bool
    ) -> bool:
        """Scalar push of one row, values given in channel order.

        The cheapest way to record a single participant's interaction
        (every consumer query): no index arrays, no per-channel dict of
        singleton arrays.  Arithmetic and resync cadence are identical
        to :meth:`push` with one row.  Returns whether the performed
        running sums moved (the row performed or evicted a performed
        entry).
        """
        if len(values) != len(self._channels):
            raise ValueError(
                f"expected {len(self._channels)} channel values, "
                f"got {len(values)}"
            )
        dirty = self._apply_scalar_push(row, values, performed)
        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return dirty

    def _push_one(
        self, row: int, values: dict[str, np.ndarray], performed: bool
    ) -> bool:
        # push() with a single row: validate the per-channel singleton
        # arrays, then run the same scalar core as push_scalar (the
        # push() wrapper owns the pushes/resync bookkeeping here).
        scalars = []
        for name in self._channels:
            new_arr = np.asarray(values[name], dtype=float)
            if new_arr.shape != (1,):
                raise ValueError(f"channel {name!r} must align with row_indices")
            scalars.append(new_arr[0])
        return self._apply_scalar_push(row, scalars, performed)

    def _apply_scalar_push(
        self, row: int, values: Sequence[float], performed: bool
    ) -> bool:
        # Scalar core shared by push_scalar and single-row push(): the
        # row's slot and sums are read once as Python floats and take
        # the same evict-old-then-add-new operations in the same order
        # as the vector paths, so they stay bit-identical while skipping
        # numpy's per-element read arithmetic.  An unfilled slot holds
        # 0.0 and False, so it evicts nothing.  Returns whether the
        # performed sums moved.
        self.scalar_pushes += 1
        pos = int(self._pos[row])
        old_performed = bool(self._performed[pos, row])
        slot = self._data[pos, row]
        sum_all = self._sum_all[row]
        sum_performed = self._sum_performed[row]
        olds = slot.tolist()
        totals = sum_all.tolist()
        performed_totals = sum_performed.tolist()
        for index, value in enumerate(values):
            new = float(value)
            old = olds[index]
            slot[index] = new
            sum_all[index] = (totals[index] - old) + new
            if old_performed or performed:
                total = performed_totals[index]
                if old_performed:
                    total -= old
                if performed:
                    total += new
                sum_performed[index] = total
        if performed != old_performed:
            self._count_performed[row] += 1 if performed else -1
        self._performed[pos, row] = performed
        if int(self._count[row]) < self._capacity:
            self._count[row] += 1
        self._pos[row] = (pos + 1) % self._capacity
        if self._rows > 1:
            self._uniform_slot = None
        else:
            self._uniform_slot = (pos + 1) % self._capacity
        return performed or old_performed

    def push_all_rows(
        self, values: dict[str, np.ndarray], performed: np.ndarray
    ) -> np.ndarray:
        """Record one interaction observed by *every* row.

        This is the common case in the paper's evaluation, where every
        provider is able to treat every query and therefore every query is
        proposed to all of them.
        """
        return self.push(self._arange, values, performed)

    def mean_all(self, channel: str, default: float = 0.0) -> np.ndarray:
        """Per-row mean of ``channel`` over the whole window."""
        sums = self._sum_all[:, self._channel_index[channel]]
        out = np.full(self._rows, default, dtype=float)
        nonempty = self._count > 0
        out[nonempty] = sums[nonempty] / self._count[nonempty]
        return out

    def mean_performed(self, channel: str, default: float = 0.0) -> np.ndarray:
        """Per-row mean of ``channel`` over performed entries only."""
        sums = self._sum_performed[:, self._channel_index[channel]]
        out = np.full(self._rows, default, dtype=float)
        nonempty = self._count_performed > 0
        out[nonempty] = sums[nonempty] / self._count_performed[nonempty]
        return out

    def mean_performed_rows(
        self, channel: str, rows: np.ndarray, default: float = 0.0
    ) -> np.ndarray:
        """:meth:`mean_performed` restricted to ``rows``."""
        sums = self._sum_performed[rows, self._channel_index[channel]]
        counts = self._count_performed[rows]
        out = np.full(rows.shape, default, dtype=float)
        nonempty = counts > 0
        out[nonempty] = sums[nonempty] / counts[nonempty]
        return out

    def row_means_all(self, row: int, default: float = 0.0) -> list[float]:
        """:meth:`mean_all` of one row, every channel, in channel order.

        Python floats from the same IEEE division as the array method,
        for callers refreshing a single row of a derived view.
        """
        count = int(self._count[row])
        if count == 0:
            return [default] * len(self._channels)
        return [total / count for total in self._sum_all[row].tolist()]

    def row_means_performed(
        self, row: int, default: float = 0.0
    ) -> list[float]:
        """:meth:`mean_performed` of one row, every channel, in channel order."""
        count = int(self._count_performed[row])
        if count == 0:
            return [default] * len(self._channels)
        return [total / count for total in self._sum_performed[row].tolist()]

    def row_values(self, row: int, channel: str) -> np.ndarray:
        """The remembered values of one row/channel, oldest first."""
        count = int(self._count[row])
        pos = int(self._pos[row])
        data = self._data[:, row, self._channel_index[channel]]
        if count < self._capacity:
            return data[:count].copy()
        return np.concatenate((data[pos:], data[:pos]))

    def _resync(self) -> None:
        # Rebuild running sums from the raw buffers to cancel FP drift.
        self._generation += 1
        # valid[slot, row]: slot holds a live interaction of row.
        valid = (
            np.arange(self._capacity)[:, None] < self._count[None, :]
        )
        performed = self._performed & valid
        self._sum_all = np.where(valid[:, :, None], self._data, 0.0).sum(axis=0)
        self._sum_performed = np.where(
            performed[:, :, None], self._data, 0.0
        ).sum(axis=0)
        self._count_performed = performed.sum(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"RowRingLog(rows={self._rows}, capacity={self._capacity}, "
            f"channels={self._channels!r})"
        )
