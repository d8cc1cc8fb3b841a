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
  once.  The channels share one stacked storage block, and a push hands
  over one (rows × channels) block in channel order
  (:meth:`RowRingLog.push_block`; :meth:`RowRingLog.push` stacks a
  per-channel mapping into it), so the whole-window sums move with
  single array operations.  The performed-only sums move just for the
  rows that evict or admit a performed entry, given as positions and
  updated one by one as Python floats, and the push hands the sums it
  wrote back to the caller, so a per-row view needs no second read;
  window fill is tracked by a shared count and a latch, so no push
  reduces over every row once the windows are full.

Running sums accumulate floating-point drift, so both classes refresh
their sums from the raw buffer after a fixed number of pushes; tests
assert the running mean never diverges from a recomputed one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["InteractionMemory", "RowRingLog"]

#: What a push hands back for the rows whose performed sums moved:
#: ``(row, performed count, [performed sum per channel])`` in Python
#: numbers, in pushed-row order.
Moved = list[tuple[int, int, list[float]]]

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
        self._channel_range = range(n_channels)
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
        # (None once any partial push breaks global lockstep); _pos is
        # only written out when something else needs it.  _fill is
        # the count every row shares while they fill together (None
        # once a push misses some rows before they are full); _all_full
        # latches once every window has filled — counts never decrease,
        # so from then on no push path updates them.
        self._uniform_slot: int | None = 0
        self._fill: int | None = 0
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

        The mapping form: the channels are checked, stacked into one
        block and recorded by :meth:`push_block`, the form the
        simulator's hot path calls directly.

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
            performed one — as int64, in ``row_indices`` order.  (Every
            pushed row's whole-window sums change, so there is no point
            reporting those.)  :meth:`push_block` hands over their new
            sums as well.
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
        block = np.empty(rows.shape + (len(self._channels),), dtype=float)
        for name, index in self._channel_index.items():
            new = np.asarray(values[name], dtype=float)
            if new.shape != rows.shape:
                raise ValueError(f"channel {name!r} must align with row_indices")
            block[..., index] = new
        moved = self.push_block(rows, block, performed.nonzero()[0])
        return np.array([row for row, _, _ in moved], dtype=np.int64)

    def push_block(
        self,
        row_indices: np.ndarray,
        block: np.ndarray,
        performed_at: np.ndarray,
    ) -> Moved:
        """Record one interaction per row, every channel in one block.

        Parameters
        ----------
        row_indices:
            Integer array of **distinct** rows, as for :meth:`push`.
        block:
            Float array of shape ``(len(row_indices), channels)``: each
            row's values in channel order.  It is copied into the
            ring, so a caller may reuse one buffer for every push.
        performed_at:
            Integer array of the **distinct** positions in
            ``row_indices`` (any order) of the rows that performed the
            interaction — for providers, the candidates the query was
            allocated to.

        Returns
        -------
        list
            The rows whose *performed* running sums changed (as for
            :meth:`push`), in ``row_indices`` order, with what the push
            wrote for them: ``(row, performed count, [performed sum per
            channel])`` in Python numbers, so a caller keeping per-row
            views of the performed means need not read them back.
        """
        rows = np.asarray(row_indices, dtype=np.int64)
        n = rows.size
        if n == 0:
            return []
        new = np.asarray(block, dtype=float)
        if new.shape != (n, len(self._channels)):
            raise ValueError(
                f"block must have shape ({n}, {len(self._channels)}), "
                f"got {new.shape}"
            )
        positions = np.asarray(performed_at)
        if positions.ndim != 1 or positions.dtype.kind not in "iu":
            raise TypeError(
                "performed_at must be a 1-D array of integer positions, "
                f"got {positions!r}"
            )
        admitted = positions.tolist()
        for position in admitted:
            if position < 0 or position >= n:
                raise ValueError(
                    f"performed_at must hold positions in [0, {n}), got "
                    f"{admitted}"
                )
        if n == 1:
            _, _, moved = self._apply_scalar_push(
                rows.item(0), new[0].tolist(), bool(admitted)
            )
        elif self._uniform_slot is not None and self._is_all_rows(rows):
            # Global lockstep: the slot is known without touching _pos.
            moved = self._push_uniform_slot(
                rows, self._uniform_slot, new, admitted, all_rows=True
            )
        else:
            moved = self._push_many(rows, new, admitted)

        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return moved

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
        self, rows: np.ndarray, new: np.ndarray, admitted: list[int]
    ) -> Moved:
        # A subset, or every row out of global lockstep: the pushed
        # rows may still share one slot.
        self._sync_positions()
        all_rows = self._is_all_rows(rows)
        pos = self._pos if all_rows else self._pos[rows]
        slot = pos[0]
        if (pos == slot).all():
            return self._push_uniform_slot(
                rows, int(slot), new, admitted, all_rows=all_rows
            )
        self._uniform_slot = None
        return self._push_scattered(rows, pos, new, admitted)

    def _push_uniform_slot(
        self,
        rows: np.ndarray,
        slot: int,
        new: np.ndarray,
        admitted: list[int],
        all_rows: bool,
    ) -> Moved:
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
        flags = self._performed[slot]
        next_slot = (slot + 1) % self._capacity
        if all_rows:
            # Positions are rows.  ``plane`` is a live view: consumed
            # before the overwrite.
            evicted = flags.nonzero()[0].tolist()
            moved = self._push_performed(
                rows, slot, plane, evicted, new, admitted
            )
            self._sum_all -= plane
            plane[...] = new
            self._sum_all += new
            if not self._all_full:
                self._count_pushed(rows, all_rows=True)
            self._uniform_slot = next_slot
            return moved
        old = plane[rows]
        evicted = flags[rows].nonzero()[0].tolist()
        moved = self._push_performed(rows, slot, old, evicted, new, admitted)
        self._sum_all[rows] -= old
        plane[rows] = new
        self._sum_all[rows] += new
        if not self._all_full:
            self._count_pushed(rows, all_rows=False)
        self._pos[rows] = next_slot
        self._uniform_slot = None
        return moved

    def _push_scattered(
        self,
        rows: np.ndarray,
        pos: np.ndarray,
        new: np.ndarray,
        admitted: list[int],
    ) -> Moved:
        # General path: rows sit at different ring positions.  Rows are
        # distinct (see the push docstring), so plain fancy indexing
        # accumulates exactly like a duplicate-safe ufunc.at scatter
        # would, without its overhead; unfilled slots evict nothing, as
        # on the uniform path.
        self.scattered_pushes += 1
        old = self._data[pos, rows]
        evicted = self._performed[pos, rows].nonzero()[0].tolist()
        moved = self._push_performed(rows, pos, old, evicted, new, admitted)
        # Evict the outgoing entry, then add the incoming one; the
        # channel axis rides along contiguously.
        self._sum_all[rows] -= old
        self._data[pos, rows] = new
        self._sum_all[rows] += new
        if not self._all_full:
            self._count_pushed(rows, all_rows=False)
        self._pos[rows] = (pos + 1) % self._capacity
        return moved

    def _sync_positions(self) -> None:
        # In global lockstep every row sits at _uniform_slot and the
        # all-rows path leaves _pos alone; write it out before anything
        # reads _pos or pushes some rows without the others.
        if self._uniform_slot is not None:
            self._pos.fill(self._uniform_slot)

    def _count_pushed(self, rows: np.ndarray, all_rows: bool) -> None:
        # One more remembered interaction per pushed row, up to the
        # capacity, then latch _all_full once every window is full.
        # While every row shares one fill (_fill), an all-rows push
        # knows the new counts and whether they are full without a
        # full-width reduction; a push that misses some rows ends that.
        capacity = self._capacity
        if all_rows and self._fill is not None:
            self._fill += 1
            self._count.fill(self._fill)
            self._all_full = self._fill == capacity
            return
        if all_rows:
            np.minimum(self._count + 1, capacity, out=self._count)
        else:
            self._fill = None
            self._count[rows] = np.minimum(self._count[rows] + 1, capacity)
        self._all_full = bool((self._count == capacity).all())

    def _push_performed(
        self,
        rows: np.ndarray,
        slots: int | np.ndarray,
        old: np.ndarray,
        evicted: list[int],
        new: np.ndarray,
        admitted: list[int],
    ) -> Moved:
        # The performed flags, sums and counts of a vector push (the
        # whole-window sums are the caller's).  ``evicted`` and
        # ``admitted`` are positions in ``rows``: the rows whose
        # outgoing entry was performed and the rows performing the
        # incoming one.  ``old`` must still hold the outgoing values and
        # ``slots`` is the ring slot being overwritten, shared or one
        # per row.  Only those rows change — at q.n = 1 about two of
        # hundreds — so each is read as Python floats, evicts and then
        # admits with the dense form's IEEE operations in the same
        # order, and is written back; when so many changed that one
        # masked full-width update is cheaper (the warm-start slot
        # evicting every row), that runs instead and the changed rows'
        # counts and sums are read back from it.  Returns what
        # push_block hands over: (row, count, sums) per changed row, in
        # ``rows`` order.
        if len(evicted) + len(admitted) > _SPARSE_ROWS:
            old_performed = np.zeros(rows.size, dtype=bool)
            old_performed[evicted] = True
            performed = np.zeros(rows.size, dtype=bool)
            performed[admitted] = True
            self._sum_performed[rows] -= np.where(
                old_performed[:, None], old, 0.0
            )
            self._sum_performed[rows] += np.where(
                performed[:, None], new, 0.0
            )
            self._count_performed[rows] += performed.astype(
                np.int64
            ) - old_performed.astype(np.int64)
            self._performed[slots, rows] = performed
            changed = rows[old_performed | performed]
            return list(
                zip(
                    changed.tolist(),
                    self._count_performed[changed].tolist(),
                    self._sum_performed[changed].tolist(),
                )
            )
        sums = self._sum_performed
        counts = self._count_performed
        flags = self._performed
        shared = isinstance(slots, int)
        channels = self._channel_range
        moved = []
        for at in sorted({*evicted, *admitted}) if evicted else sorted(admitted):
            row = rows.item(at)
            evicts = at in evicted
            performs = at in admitted
            totals = []
            for index in channels:
                total = sums.item(row, index)
                if evicts:
                    total -= old.item(at, index)
                if performs:
                    total += new.item(at, index)
                sums[row, index] = total
                totals.append(total)
            count = counts.item(row) + performs - evicts
            counts[row] = count
            flags[slots if shared else slots.item(at), row] = performs
            moved.append((row, count, totals))
        return moved

    def push_scalar(
        self, row: int, values: Sequence[float], performed: bool
    ) -> tuple[int, list[float], Moved]:
        """Scalar push of one row, values given in channel order.

        The cheapest way to record a single participant's interaction
        (every consumer query): no index arrays, no per-channel dict of
        singleton arrays.  Arithmetic and resync cadence are identical
        to :meth:`push` with one row.  Returns what the push wrote:
        ``(count, sums, moved)``, the row's window count and
        whole-window sums (channel order) after the push, and ``moved``
        as :meth:`push_block` returns it — ``[(row, performed count,
        performed sums)]`` when the row performed or evicted a
        performed entry, else empty.
        """
        if len(values) != len(self._channels):
            raise ValueError(
                f"expected {len(self._channels)} channel values, "
                f"got {len(values)}"
            )
        pushed = self._apply_scalar_push(row, values, performed)
        self._pushes += 1
        if self._pushes % _RESYNC_INTERVAL == 0:
            self._resync()
        return pushed

    def _apply_scalar_push(
        self, row: int, values: Sequence[float], performed: bool
    ) -> tuple[int, list[float], Moved]:
        # Scalar core shared by push_scalar and single-row pushes: the
        # row's slot and sums are read once as Python floats and take
        # the same evict-old-then-add-new operations in the same order
        # as the vector paths, so they stay bit-identical while skipping
        # numpy's per-element read arithmetic.  An unfilled slot holds
        # 0.0 and False, so it evicts nothing.  Returns what push_scalar
        # does.
        self.scalar_pushes += 1
        self._sync_positions()
        pos = self._pos.item(row)
        old_performed = self._performed.item(pos, row)
        slot = self._data[pos, row]
        sum_all = self._sum_all[row]
        olds = slot.tolist()
        totals = sum_all.tolist()
        # The performed sums move only if the row performs or evicts a
        # performed entry (never, for a log that records none).
        moves = old_performed or performed
        if moves:
            sum_performed = self._sum_performed[row]
            performed_totals = sum_performed.tolist()
        for index, value in enumerate(values):
            new = float(value)
            old = olds[index]
            slot[index] = new
            total = (totals[index] - old) + new
            sum_all[index] = totals[index] = total
            if moves:
                total = performed_totals[index]
                if old_performed:
                    total -= old
                if performed:
                    total += new
                sum_performed[index] = performed_totals[index] = total
        if performed != old_performed:
            self._count_performed[row] += 1 if performed else -1
            self._performed[pos, row] = performed
        count = self._count.item(row)
        if count < self._capacity:
            count += 1
            self._count[row] = count
            self._fill = None
            if count == self._capacity:
                # This window just filled; it may have been the last.
                self._all_full = bool((self._count == self._capacity).all())
        self._pos[row] = (pos + 1) % self._capacity
        if self._rows > 1:
            self._uniform_slot = None
        else:
            self._uniform_slot = (pos + 1) % self._capacity
        if moves:
            performed_count = self._count_performed.item(row)
            return count, totals, [(row, performed_count, performed_totals)]
        return count, totals, []

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

    def row_values(self, row: int, channel: str) -> np.ndarray:
        """The remembered values of one row/channel, oldest first."""
        self._sync_positions()
        count = self._count.item(row)
        pos = self._pos.item(row)
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
