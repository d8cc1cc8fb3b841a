"""Tests for the bounded interaction memories."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.memory import InteractionMemory, RowRingLog


class TestInteractionMemory:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            InteractionMemory(0)
        with pytest.raises(ValueError):
            InteractionMemory(-3)

    def test_empty_memory_reports_default(self):
        memory = InteractionMemory(4)
        assert len(memory) == 0
        assert not memory
        assert memory.mean() == 0.0
        assert memory.mean(default=0.5) == 0.5

    def test_mean_of_partial_window(self):
        memory = InteractionMemory(10)
        memory.extend([1.0, 0.0, 0.5])
        assert memory.mean() == pytest.approx(0.5)
        assert len(memory) == 3

    def test_eviction_is_fifo(self):
        memory = InteractionMemory(2)
        memory.extend([1.0, 0.0, -1.0])  # evicts the 1.0
        assert memory.mean() == pytest.approx(-0.5)
        assert list(memory.values()) == [0.0, -1.0]

    def test_values_preserve_chronological_order_after_wrap(self):
        memory = InteractionMemory(3)
        memory.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert list(memory.values()) == [3.0, 4.0, 5.0]

    def test_clear_forgets_everything(self):
        memory = InteractionMemory(3)
        memory.extend([1.0, 2.0])
        memory.clear()
        assert len(memory) == 0
        assert memory.mean(default=0.25) == 0.25

    def test_iteration_matches_values(self):
        memory = InteractionMemory(4)
        memory.extend([0.1, 0.2, 0.3])
        assert list(memory) == pytest.approx([0.1, 0.2, 0.3])

    @given(
        capacity=st.integers(min_value=1, max_value=20),
        values=st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=0,
            max_size=200,
        ),
    )
    def test_running_mean_matches_recomputed_mean(self, capacity, values):
        """Property: the O(1) mean equals the brute-force window mean."""
        memory = InteractionMemory(capacity)
        for value in values:
            memory.push(value)
        window = values[-capacity:]
        if window:
            assert memory.mean() == pytest.approx(
                sum(window) / len(window), abs=1e-9
            )
        else:
            assert memory.mean(default=0.5) == 0.5

    def test_resync_cancels_drift_over_many_pushes(self):
        memory = InteractionMemory(7)
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, 10_000)
        for value in values:
            memory.push(value)
        assert memory.mean() == pytest.approx(values[-7:].mean(), abs=1e-9)


class TestRowRingLog:
    def _log(self, rows=3, capacity=4):
        return RowRingLog(rows=rows, capacity=capacity, channels=("a", "b"))

    def test_validates_constructor_arguments(self):
        with pytest.raises(ValueError):
            RowRingLog(rows=0, capacity=4, channels=("a",))
        with pytest.raises(ValueError):
            RowRingLog(rows=2, capacity=0, channels=("a",))
        with pytest.raises(ValueError):
            RowRingLog(rows=2, capacity=4, channels=())
        with pytest.raises(ValueError):
            RowRingLog(rows=2, capacity=4, channels=("a", "a"))

    def test_push_validates_alignment_and_channels(self):
        log = self._log()
        rows = np.array([0, 1])
        with pytest.raises(ValueError):
            log.push(rows, {"a": np.zeros(2)}, performed=np.zeros(2, bool))
        with pytest.raises(ValueError):
            log.push(
                rows,
                {"a": np.zeros(3), "b": np.zeros(2)},
                performed=np.zeros(2, bool),
            )
        with pytest.raises(ValueError):
            log.push(
                rows,
                {"a": np.zeros(2), "b": np.zeros(2)},
                performed=np.zeros(3, bool),
            )

    def test_empty_rows_report_default(self):
        log = self._log()
        assert log.mean_all("a", default=-1.0).tolist() == [-1.0] * 3
        assert log.mean_performed("a", default=0.5).tolist() == [0.5] * 3

    def test_push_all_rows_and_means(self):
        log = self._log()
        log.push_all_rows(
            {"a": np.array([1.0, 2.0, 3.0]), "b": np.zeros(3)},
            performed=np.array([True, False, True]),
        )
        assert log.mean_all("a").tolist() == [1.0, 2.0, 3.0]
        assert log.mean_performed("a", default=0.0).tolist() == [1.0, 0.0, 3.0]
        assert log.counts().tolist() == [1, 1, 1]
        assert log.performed_counts().tolist() == [1, 0, 1]

    def test_eviction_updates_performed_subset(self):
        """A performed entry ageing out must shrink the performed mean."""
        log = RowRingLog(rows=1, capacity=2, channels=("a",))
        row = np.array([0])
        log.push(row, {"a": np.array([1.0])}, performed=np.array([True]))
        log.push(row, {"a": np.array([0.0])}, performed=np.array([False]))
        assert log.mean_performed("a")[0] == pytest.approx(1.0)
        # This push evicts the performed 1.0: nothing performed remains.
        log.push(row, {"a": np.array([0.5])}, performed=np.array([False]))
        assert log.performed_counts()[0] == 0
        assert log.mean_performed("a", default=-1.0)[0] == -1.0

    def test_subset_rows_advance_independently(self):
        log = self._log(rows=3, capacity=2)
        log.push(
            np.array([0]),
            {"a": np.array([1.0]), "b": np.array([0.0])},
            performed=np.array([True]),
        )
        log.push(
            np.array([0, 2]),
            {"a": np.array([3.0, 5.0]), "b": np.zeros(2)},
            performed=np.array([True, True]),
        )
        assert log.counts().tolist() == [2, 0, 1]
        assert log.mean_all("a", default=0.0).tolist() == [2.0, 0.0, 5.0]

    def test_row_values_returns_chronological_window(self):
        log = RowRingLog(rows=1, capacity=3, channels=("a",))
        for value in [1.0, 2.0, 3.0, 4.0]:
            log.push(
                np.array([0]),
                {"a": np.array([value])},
                performed=np.array([True]),
            )
        assert log.row_values(0, "a").tolist() == [2.0, 3.0, 4.0]

    @given(
        capacity=st.integers(min_value=1, max_value=6),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.booleans(),
            ),
            min_size=0,
            max_size=60,
        ),
    )
    @settings(max_examples=60)
    def test_single_row_matches_bruteforce(self, capacity, steps):
        """Property: running sums equal brute-force window recomputation."""
        log = RowRingLog(rows=1, capacity=capacity, channels=("v",))
        row = np.array([0])
        for value, performed in steps:
            log.push(
                row,
                {"v": np.array([value])},
                performed=np.array([performed]),
            )
        window = steps[-capacity:]
        all_values = [v for v, _ in window]
        performed_values = [v for v, flag in window if flag]
        if all_values:
            assert log.mean_all("v")[0] == pytest.approx(
                np.mean(all_values), abs=1e-9
            )
        if performed_values:
            assert log.mean_performed("v")[0] == pytest.approx(
                np.mean(performed_values), abs=1e-9
            )
        else:
            assert log.performed_counts()[0] == 0

    def test_resync_keeps_sums_consistent_after_many_pushes(self):
        log = RowRingLog(rows=2, capacity=5, channels=("v",))
        rng = np.random.default_rng(1)
        history = {0: [], 1: []}
        for _ in range(5000):
            rows = np.array([0, 1])
            values = rng.uniform(-1, 1, 2)
            performed = rng.random(2) < 0.5
            log.push(rows, {"v": values}, performed=performed)
            for i in (0, 1):
                history[i].append((values[i], performed[i]))
        for i in (0, 1):
            window = history[i][-5:]
            assert log.mean_all("v")[i] == pytest.approx(
                np.mean([v for v, _ in window]), abs=1e-9
            )


class TestInteractionMemoryBulkExtend:
    """The vectorised extend must be indistinguishable from scalar pushes."""

    @given(
        capacity=st.integers(min_value=1, max_value=12),
        chunks=st.lists(
            st.lists(
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                min_size=0,
                max_size=40,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=80)
    def test_extend_matches_scalar_pushes(self, capacity, chunks):
        bulk = InteractionMemory(capacity)
        scalar = InteractionMemory(capacity)
        for chunk in chunks:
            bulk.extend(chunk)
            for value in chunk:
                scalar.push(value)
            # The remembered window is bit-identical; the running mean
            # may differ by float-drift ulps (extend resyncs from the
            # raw buffer, which is *more* accurate than the incremental
            # sum), so it is compared within the documented tolerance.
            assert np.array_equal(bulk.values(), scalar.values())
            assert bulk.mean(default=0.5) == pytest.approx(
                scalar.mean(default=0.5), abs=1e-9
            )
            assert len(bulk) == len(scalar)

    def test_extend_then_push_continues_the_same_ring(self):
        bulk = InteractionMemory(3)
        scalar = InteractionMemory(3)
        bulk.extend([1.0, 2.0, 3.0, 4.0])
        for value in [1.0, 2.0, 3.0, 4.0]:
            scalar.push(value)
        bulk.push(5.0)
        scalar.push(5.0)
        assert np.array_equal(bulk.values(), scalar.values())

    def test_extend_longer_than_capacity_keeps_only_tail(self):
        memory = InteractionMemory(3)
        memory.extend(range(100))
        assert memory.values().tolist() == [97.0, 98.0, 99.0]


class TestRowRingLogBulkPaths:
    """Uniform-slot, scattered, and scalar pushes against brute force."""

    @given(
        capacity=st.integers(min_value=1, max_value=5),
        steps=st.lists(
            st.tuples(
                # Row subset as a bitmask over 6 rows (0 → no push).
                st.integers(min_value=1, max_value=63),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.booleans(),
            ),
            min_size=0,
            max_size=40,
        ),
    )
    @settings(max_examples=80)
    def test_subset_pushes_match_bruteforce_windows(self, capacity, steps):
        rows_total = 6
        log = RowRingLog(rows=rows_total, capacity=capacity, channels=("v",))
        windows = [[] for _ in range(rows_total)]
        for bitmask, value, performed in steps:
            rows = np.flatnonzero(
                [(bitmask >> row) & 1 for row in range(rows_total)]
            )
            values = np.full(rows.size, value)
            performed_arr = np.full(rows.size, performed, dtype=bool)
            dirty = log.push(rows, {"v": values}, performed=performed_arr)
            expected_dirty = []
            for row in rows:
                window = windows[row]
                evicted_performed = (
                    len(window) == capacity and window[0][1]
                )
                if performed or evicted_performed:
                    expected_dirty.append(row)
                window.append((value, performed))
                del window[:-capacity]
            assert dirty.tolist() == expected_dirty
        for row in range(rows_total):
            window = windows[row]
            all_values = [value for value, _ in window]
            performed_values = [
                value for value, performed in window if performed
            ]
            assert log.counts()[row] == len(all_values)
            assert log.performed_counts()[row] == len(performed_values)
            if all_values:
                assert log.mean_all("v")[row] == pytest.approx(
                    np.mean(all_values), abs=1e-9
                )
                assert np.array_equal(
                    log.row_values(row, "v"), np.array(all_values)
                )
            if performed_values:
                assert log.mean_performed("v")[row] == pytest.approx(
                    np.mean(performed_values), abs=1e-9
                )

    @given(
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.floats(min_value=-1, max_value=1, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_push_scalar_equals_single_row_push(self, steps):
        """push_scalar is bit-identical to push() with one row."""
        via_push = RowRingLog(rows=4, capacity=3, channels=("a", "b"))
        via_scalar = RowRingLog(rows=4, capacity=3, channels=("a", "b"))
        for row, a, b, performed in steps:
            returned = via_push.push(
                np.array([row]),
                {"a": np.array([a]), "b": np.array([b])},
                performed=np.array([performed]),
            )
            _, _, moved = via_scalar.push_scalar(row, (a, b), performed)
            assert [changed for changed, _, _ in moved] == returned.tolist()
        for channel in ("a", "b"):
            assert np.array_equal(
                via_push.mean_all(channel), via_scalar.mean_all(channel)
            )
            assert np.array_equal(
                via_push.mean_performed(channel),
                via_scalar.mean_performed(channel),
            )
            for row in range(4):
                assert np.array_equal(
                    via_push.row_values(row, channel),
                    via_scalar.row_values(row, channel),
                )

    def test_push_scalar_validates_channel_count(self):
        log = RowRingLog(rows=2, capacity=2, channels=("a", "b"))
        with pytest.raises(ValueError):
            log.push_scalar(0, (1.0,), True)

    def test_full_population_lockstep_then_subset(self):
        """Departure-style shrinkage: all-rows pushes then a subset."""
        log = RowRingLog(rows=5, capacity=2, channels=("v",))
        for value in (0.1, 0.2, 0.3):
            log.push_all_rows(
                {"v": np.full(5, value)}, performed=np.zeros(5, dtype=bool)
            )
        survivors = np.array([0, 1, 3])
        log.push(
            survivors,
            {"v": np.full(3, 0.9)},
            performed=np.array([True, False, False]),
        )
        assert log.mean_all("v")[0] == pytest.approx((0.3 + 0.9) / 2)
        assert log.mean_all("v")[2] == pytest.approx((0.2 + 0.3) / 2)
        assert log.mean_performed("v", default=-1.0)[0] == pytest.approx(0.9)
        assert log.mean_performed("v", default=-1.0)[2] == -1.0


class TestRowRingLogBlockPushes:
    """The block form the simulator pushes through, and the fill latch."""

    def test_push_block_validates_shape_and_positions(self):
        log = RowRingLog(rows=3, capacity=2, channels=("a", "b"))
        rows = np.arange(3)
        with pytest.raises(ValueError):
            log.push_block(rows, np.zeros((3, 1)), np.array([0]))
        with pytest.raises(ValueError):
            log.push_block(rows, np.zeros((2, 2)), np.array([0]))
        # A boolean mask is not a list of positions.
        with pytest.raises(TypeError):
            log.push_block(rows, np.zeros((3, 2)), np.array([True, False, False]))
        assert log.push_stats() == {"uniform": 0, "scattered": 0, "scalar": 0}

    @pytest.mark.parametrize(
        ("rows", "performed_at"),
        [
            (np.arange(4), [-1]),
            (np.arange(4), [4]),
            (np.arange(4), [0, 4]),
            (np.array([3, 1]), [2]),
            (np.array([2]), [1]),
        ],
    )
    def test_push_block_refuses_positions_outside_the_rows(
        self, rows, performed_at
    ):
        log = RowRingLog(rows=4, capacity=2, channels=("a",))
        log.push_block(np.arange(4), np.full((4, 1), 0.5), np.array([1]))
        with pytest.raises(ValueError, match="positions in"):
            log.push_block(
                rows, np.zeros((rows.size, 1)), np.array(performed_at)
            )
        # Refused before anything is written.
        assert log.performed_counts().tolist() == [0, 1, 0, 0]
        assert log.counts().tolist() == [1, 1, 1, 1]
        assert sum(log.push_stats().values()) == 1

    def test_push_block_refuses_positions_that_are_not_1d(self):
        log = RowRingLog(rows=3, capacity=2, channels=("a",))
        with pytest.raises(TypeError, match="1-D"):
            log.push_block(np.arange(3), np.zeros((3, 1)), np.array(0))
        with pytest.raises(TypeError, match="1-D"):
            log.push_block(np.arange(3), np.zeros((3, 1)), np.array([[0]]))
        assert log.counts().tolist() == [0, 0, 0]

    def test_push_block_matches_the_mapping_form(self):
        via_block = RowRingLog(rows=4, capacity=3, channels=("a", "b"))
        via_mapping = RowRingLog(rows=4, capacity=3, channels=("a", "b"))
        rng = np.random.default_rng(7)
        for step in range(10):
            rows = np.arange(4) if step % 3 else np.array([2, 0, 3])
            values = rng.uniform(-1.0, 1.0, (rows.size, 2))
            positions = rng.permutation(rows.size)[: step % 3]
            mask = np.zeros(rows.size, dtype=bool)
            mask[positions] = True
            moved = via_block.push_block(rows, values, positions)
            expected = via_mapping.push(
                rows, {"a": values[:, 0], "b": values[:, 1]}, performed=mask
            )
            # Changed rows come back in ``rows`` order, however the
            # positions were ordered.
            assert [row for row, _, _ in moved] == expected.tolist()
            assert expected.dtype == np.int64
        for channel in ("a", "b"):
            assert np.array_equal(
                via_block.mean_performed(channel), via_mapping.mean_performed(channel)
            )
            assert np.array_equal(
                via_block.mean_all(channel), via_mapping.mean_all(channel)
            )

    @pytest.mark.parametrize(
        ("path", "last"),
        [
            ("lockstep", "uniform"),
            ("subset", "uniform"),
            ("scattered", "scattered"),
            ("scalar", "scalar"),
        ],
    )
    def test_fill_latches_on_every_push_path(self, path, last):
        """Whichever path fills the last window latches the log full, so
        no later push updates counts that cannot change."""
        log = RowRingLog(rows=3, capacity=2, channels=("v",))
        nobody = np.array([], dtype=np.int64)
        everyone = np.arange(3)
        log.push_block(everyone, np.zeros((3, 1)), nobody)
        if path in ("subset", "scattered"):
            # Row 1 runs one push ahead of rows 0 and 2.
            log.push_scalar(1, (0.5,), False)
        elif path == "scalar":
            log.push_block(np.array([0, 1]), np.zeros((2, 1)), nobody)
        before = log.push_stats()
        if path == "lockstep":
            log.push_block(everyone, np.zeros((3, 1)), nobody)
        elif path == "subset":
            # Rows 0 and 2 still share one slot.
            log.push_block(np.array([0, 2]), np.zeros((2, 1)), nobody)
        elif path == "scattered":
            # Every row, sitting at two different slots.
            log.push_block(everyone, np.zeros((3, 1)), nobody)
        else:
            log.push_scalar(2, (0.5,), False)
        assert log.push_stats()[last] == before[last] + 1
        assert log.counts().tolist() == [2, 2, 2]
        assert log._all_full
