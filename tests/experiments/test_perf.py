"""Tests for the engine's standard perf matrix."""

from __future__ import annotations

from repro.experiments.perf import PERF_MATRIX


def test_quick_subset_is_marked_on_the_standard_matrix():
    quick = [cell.name for cell in PERF_MATRIX if cell.quick]
    full = [cell.name for cell in PERF_MATRIX]
    assert quick == ["captive_small", "autonomy_small"]
    assert full == [
        "captive_small",
        "autonomy_small",
        "captive_large",
        "autonomy_large",
    ]
