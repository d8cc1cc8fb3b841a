"""The ring log's sparse performed-sum pushes against the dense forms.

:class:`DenseRowRingLog` keeps the full-width masked push arithmetic the
sparse paths replaced: every pushed row's performed sums and counts go
through ``np.where`` masks and ``astype`` casts, and the scalar push
reads and writes one numpy element at a time.  Random push programs
drive both implementations side by side and compare everything a
reader can observe, bit for bit, the sums and counts a push hands back
included: the reference reads them back from its arrays.

Means are compared rather than raw sums: the dense form adds ``0.0``
to every untouched row, which turns a ``-0.0`` sum into ``0.0``, and
every reader maps both to the same mean.  Handed-back sums compare as
Python floats, for which ``-0.0 == 0.0``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model import memory
from repro.model.memory import RowRingLog
from repro.simulation import participants
from repro.simulation.participants import ConsumerPool, ProviderPool


class DenseRowRingLog(RowRingLog):
    """The full-width masked push forms, kept as the bit-exact reference.

    Each vector path rebuilds the performed masks from the positions it
    is given and updates every pushed row through them, and every push
    recomputes the fill mask and the counts instead of trusting a latch.
    What a push hands back is read from the updated arrays.
    """

    def _hand_off(self, rows, performed, old_performed):
        # push_block's contract: the changed rows' new performed counts
        # and sums.
        changed = rows[performed | old_performed]
        return [
            (row, self._count_performed.item(row), self._sum_performed[row].tolist())
            for row in changed.tolist()
        ]

    def _push_uniform_slot(self, rows, slot, new, admitted, all_rows):
        self.uniform_pushes += 1
        performed = np.zeros(rows.size, dtype=bool)
        performed[admitted] = True
        plane = self._data[slot]
        performed_plane = self._performed[slot]
        capacity = self._capacity
        if all_rows:
            old = plane
            full = self._count == capacity
            old_performed = performed_plane & full
            self._sum_all -= np.where(full[:, None], old, 0.0)
            self._sum_performed -= np.where(old_performed[:, None], old, 0.0)
            self._count_performed += performed.astype(
                np.int64
            ) - old_performed.astype(np.int64)
            plane[...] = new
            self._sum_all += new
            self._sum_performed += np.where(performed[:, None], new, 0.0)
            performed_plane[...] = performed
            np.minimum(self._count + 1, capacity, out=self._count)
            self._pos[...] = (slot + 1) % capacity
            self._uniform_slot = (slot + 1) % capacity
            return self._hand_off(rows, performed, old_performed)
        old = plane[rows]
        full = self._count[rows] == capacity
        old_performed = performed_plane[rows] & full
        self._sum_all[rows] -= np.where(full[:, None], old, 0.0)
        self._sum_performed[rows] -= np.where(old_performed[:, None], old, 0.0)
        self._count_performed[rows] += performed.astype(
            np.int64
        ) - old_performed.astype(np.int64)
        plane[rows] = new
        self._sum_all[rows] += new
        self._sum_performed[rows] += np.where(performed[:, None], new, 0.0)
        performed_plane[rows] = performed
        self._count[rows] = np.minimum(self._count[rows] + 1, capacity)
        self._pos[rows] = (slot + 1) % capacity
        self._uniform_slot = None
        return self._hand_off(rows, performed, old_performed)

    def _push_scattered(self, rows, pos, new, admitted):
        self.scattered_pushes += 1
        performed = np.zeros(rows.size, dtype=bool)
        performed[admitted] = True
        full = self._count[rows] == self._capacity
        old_performed = self._performed[pos, rows] & full
        old = self._data[pos, rows]
        self._sum_all[rows] -= np.where(full[:, None], old, 0.0)
        self._sum_performed[rows] -= np.where(old_performed[:, None], old, 0.0)
        self._data[pos, rows] = new
        self._sum_all[rows] += new
        self._sum_performed[rows] += np.where(performed[:, None], new, 0.0)
        self._count_performed[rows] += performed.astype(
            np.int64
        ) - old_performed.astype(np.int64)
        self._performed[pos, rows] = performed
        self._count[rows] = np.minimum(self._count[rows] + 1, self._capacity)
        self._pos[rows] = (pos + 1) % self._capacity
        return self._hand_off(rows, performed, old_performed)

    def _apply_scalar_push(self, row, values, performed):
        self.scalar_pushes += 1
        pos = int(self._pos[row])
        full = int(self._count[row]) == self._capacity
        old_performed = full and bool(self._performed[pos, row])
        data = self._data
        sum_all = self._sum_all
        sum_performed = self._sum_performed
        for index, value in enumerate(values):
            new = float(value)
            old = float(data[pos, row, index])
            if full:
                sum_all[row, index] -= old
            if old_performed:
                sum_performed[row, index] -= old
            data[pos, row, index] = new
            sum_all[row, index] += new
            if performed:
                sum_performed[row, index] += new
        self._count_performed[row] += int(performed) - int(old_performed)
        self._performed[pos, row] = performed
        if not full:
            self._count[row] += 1
        self._pos[row] = (pos + 1) % self._capacity
        if self._rows > 1:
            self._uniform_slot = None
        else:
            self._uniform_slot = (pos + 1) % self._capacity
        moved = []
        if performed or old_performed:
            moved.append(
                (row, self._count_performed.item(row), sum_performed[row].tolist())
            )
        return self._count.item(row), sum_all[row].tolist(), moved


#: Boundary values, mixed with arbitrary ones in every program.
BOUNDARY = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
CHANNELS = ("a", "b")


def draw_values(rng, n):
    values = rng.uniform(-1.0, 1.0, n)
    boundary = rng.random(n) < 0.4
    values[boundary] = rng.choice(BOUNDARY, int(boundary.sum()))
    return values.tolist()


def push_program(seed, n_rows, n_pushes):
    """Random pushes over every path: lockstep, warm-start, subset,
    scattered, scalar and single-row, with multi-row performed sets,
    through the mapping form and the block form."""
    rng = np.random.default_rng(seed)
    kinds = ("all", "all", "all", "warm", "subset", "scalar", "single", "block")
    pushes = []
    for _ in range(n_pushes):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("all", "warm") or (kind == "block" and rng.random() < 0.6):
            rows = list(range(n_rows))
        elif kind in ("subset", "block"):
            # Any order: pushes accept distinct rows, not sorted ones.
            rows = rng.permutation(n_rows)[: rng.integers(2, n_rows + 1)].tolist()
        else:
            rows = [int(rng.integers(n_rows))]
        n = len(rows)
        if kind == "warm":
            performed = [True] * n
        else:
            performed = (rng.random(n) < rng.choice([0.1, 0.5, 0.9])).tolist()
        pushes.append((kind, rows, draw_values(rng, 2 * n), performed))
    return pushes


def apply_push(log, kind, rows, channel_values, performed):
    n = len(rows)
    if kind == "scalar":
        return log.push_scalar(
            rows[0], channel_values[:2], performed[0]
        )
    if kind == "block":
        # Positions in any order, as a method returns its selection.
        positions = np.flatnonzero(performed)
        return log.push_block(
            np.array(rows),
            np.column_stack((channel_values[:n], channel_values[n:])),
            positions[np.random.default_rng(n).permutation(positions.size)],
        )
    return log.push(
        np.array(rows),
        {
            "a": np.array(channel_values[:n]),
            "b": np.array(channel_values[n:]),
        },
        performed=np.array(performed, dtype=bool),
    )


def assert_same_observables(log, reference, n_rows, windows=True):
    for channel in CHANNELS:
        assert np.array_equal(log.mean_all(channel), reference.mean_all(channel))
        assert np.array_equal(
            log.mean_performed(channel, default=-1.0),
            reference.mean_performed(channel, default=-1.0),
        )
    assert np.array_equal(log.counts(), reference.counts())
    assert np.array_equal(log.performed_counts(), reference.performed_counts())
    assert log.generation == reference.generation
    assert log.push_stats() == reference.push_stats()
    if not windows:
        return
    for row in range(n_rows):
        for channel in CHANNELS:
            assert np.array_equal(
                log.row_values(row, channel), reference.row_values(row, channel)
            )


class TestSparsePushesMatchDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_rows=st.integers(min_value=2, max_value=12),
        capacity=st.integers(min_value=1, max_value=5),
        resync=st.integers(min_value=2, max_value=25),
        n_pushes=st.integers(min_value=1, max_value=45),
    )
    def test_every_push_path_is_bit_identical(
        self, seed, n_rows, capacity, resync, n_pushes
    ):
        log = RowRingLog(rows=n_rows, capacity=capacity, channels=CHANNELS)
        reference = DenseRowRingLog(
            rows=n_rows, capacity=capacity, channels=CHANNELS
        )
        with mock.patch.object(memory, "_RESYNC_INTERVAL", resync):
            for push in push_program(seed, n_rows, n_pushes):
                moved = apply_push(log, *push)
                expected = apply_push(reference, *push)
                if isinstance(expected, np.ndarray):
                    # The mapping form's rows.
                    assert np.array_equal(moved, expected)
                    assert moved.dtype == expected.dtype
                else:
                    # What the push wrote, as Python numbers: the
                    # sparse paths' per-row arithmetic against the
                    # dense arrays read back.
                    assert moved == expected
                assert_same_observables(log, reference, n_rows, windows=False)
        assert_same_observables(log, reference, n_rows)


def pool_program(seed, n_providers, n_consumers, n_steps, lockstep):
    """Proposals and consumer queries in the engine's shapes.

    Proposals carry raw Definition 8 intentions (the negative branch
    reaches about -2.5), the preferences, and the positions a method
    selected, in its order.  ``lockstep`` proposes every query to every
    provider, so the warm-start slot wraps on the all-rows path.
    """
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n_steps):
        if rng.random() < 0.5:
            pair = rng.uniform(0.0, 1.0, 2).tolist()
            steps.append(("query", int(rng.integers(n_consumers)), pair))
            continue
        # Sorted candidates, as a departure-shrunk universal matchmaker
        # hands them over; mostly everyone.
        rows = np.arange(n_providers)
        if not lockstep and rng.random() < 0.3:
            rows = rows[rng.random(n_providers) < 0.7]
        if rows.size < 2:
            rows = np.arange(n_providers)
        positions = rng.permutation(rows.size)[: rng.integers(0, 4)]
        intentions = rng.uniform(-2.6, 1.0, rows.size)
        raw = rng.random(rows.size) < 0.3
        intentions[raw] = rng.choice([-2.5, -1.0, 0.0, 1.0], int(raw.sum()))
        preferences = draw_values(rng, rows.size)
        steps.append(
            ("propose", rows.tolist(), intentions.tolist(), preferences, positions.tolist())
        )
    return steps


class TestPoolViewsMatchDenseReference:
    @settings(max_examples=100, deadline=None)
    @example(  # twelve warm-start evictions at once: the masked path
        seed=0, n_providers=12, n_consumers=2, memory_size=1, warm=1,
        resync=25, n_steps=6, lockstep=True,
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_providers=st.integers(min_value=2, max_value=12),
        n_consumers=st.integers(min_value=1, max_value=4),
        memory_size=st.integers(min_value=1, max_value=5),
        warm=st.integers(min_value=0, max_value=5),
        resync=st.integers(min_value=2, max_value=25),
        n_steps=st.integers(min_value=1, max_value=40),
        lockstep=st.booleans(),
    )
    def test_incremental_views_are_bit_identical(
        self, seed, n_providers, n_consumers, memory_size, warm, resync,
        n_steps, lockstep,
    ):
        warm = min(warm, memory_size)
        steps = pool_program(seed, n_providers, n_consumers, n_steps, lockstep)
        with mock.patch.object(memory, "_RESYNC_INTERVAL", resync):
            with mock.patch.object(participants, "RowRingLog", DenseRowRingLog):
                ref_providers = ProviderPool(
                    n_providers, memory_size, 0.5, warm_start_entries=warm
                )
                ref_consumers = ConsumerPool(n_consumers, memory_size, 0.5)
            providers = ProviderPool(
                n_providers, memory_size, 0.5, warm_start_entries=warm
            )
            consumers = ConsumerPool(n_consumers, memory_size, 0.5)
            for step in steps:
                if step[0] == "query":
                    _, consumer, (adequation, satisfaction) = step
                    for pool in (consumers, ref_consumers):
                        pool.record_query(consumer, adequation, satisfaction)
                else:
                    _, rows, intentions, preferences, positions = step
                    # The reference gets np.clip's values: the pool's
                    # own clip must match it (and clipping twice is
                    # clipping once).
                    for pool, shown in (
                        (providers, np.array(intentions)),
                        (ref_providers, np.clip(intentions, -1.0, 1.0)),
                    ):
                        pool.record_proposals(
                            np.array(rows),
                            intentions=shown,
                            preferences=np.array(preferences),
                            performed_at=np.array(positions, dtype=np.int64),
                        )
                for view, reference, channel in (
                    (consumers.satisfactions(), ref_consumers.satisfactions(), "satisfaction"),
                    (consumers.adequations(), ref_consumers.adequations(), "adequation"),
                ):
                    assert np.array_equal(view, reference)
                    # The one-row refresh and the rebuild on read equal
                    # a wholesale recompute.
                    means = consumers._log.mean_all(channel, default=0.5)
                    assert np.array_equal(view, np.clip(means, 0.0, 1.0))
                assert np.array_equal(
                    consumers.allocation_satisfactions(),
                    ref_consumers.allocation_satisfactions(),
                )
                for basis in ("intention", "preference"):
                    views = providers.satisfactions(basis)
                    assert np.array_equal(views, ref_providers.satisfactions(basis))
                    # The row-by-row refresh equals a wholesale recompute.
                    means = providers._log.mean_performed(basis, default=-1.0)
                    assert np.array_equal(
                        views, np.clip((means + 1.0) / 2.0, 0.0, 1.0)
                    )
                    assert np.array_equal(
                        providers.adequations(basis),
                        ref_providers.adequations(basis),
                    )
