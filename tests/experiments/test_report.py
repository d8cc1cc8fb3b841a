"""Tests for the plain-text report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.report import (
    format_curve_table,
    format_reason_table,
    format_series_table,
    format_surface,
)


class TestFormatSeriesTable:
    def test_renders_header_and_rows(self):
        times = np.array([10.0, 20.0])
        table = format_series_table(
            times,
            {"sqlb": np.array([0.5, 0.6]), "capacity": np.array([0.4, 0.3])},
            value_label="satisfaction",
        )
        lines = table.splitlines()
        assert lines[0] == "# satisfaction"
        assert "sqlb" in lines[1] and "capacity" in lines[1]
        assert len(lines) == 4

    def test_thins_long_series_keeping_last(self):
        times = np.linspace(0, 1000, 101)
        series = {"m": np.linspace(0, 1, 101)}
        table = format_series_table(times, series, "x", max_rows=10)
        lines = table.splitlines()
        assert len(lines) <= 12
        assert "1000.0" in lines[-1]

    def test_nan_rendered_as_dash(self):
        table = format_series_table(
            np.array([1.0]), {"m": np.array([float("nan")])}, "x"
        )
        assert table.splitlines()[-1].split()[-1] == "-"

    def test_rejects_misaligned_series(self):
        with pytest.raises(ValueError):
            format_series_table(
                np.array([1.0, 2.0]), {"m": np.array([1.0])}, "x"
            )


class TestFormatCurveTable:
    def test_scales_workload_to_percent(self):
        table = format_curve_table(
            (0.2, 1.0),
            {"sqlb": np.array([1.5, 9.0])},
            value_label="response time",
        )
        lines = table.splitlines()
        assert lines[2].split()[0] == "20"
        assert lines[3].split()[0] == "100"


class TestFormatReasonTable:
    def test_renders_every_reason_and_dimension(self):
        table = {
            "cells": {
                "dissatisfaction": {
                    "interest": {"low": 1.0, "medium": 2.0, "high": 3.0},
                    "adaptation": {"low": 2.0, "medium": 2.0, "high": 2.0},
                    "capacity": {"low": 3.0, "medium": 2.0, "high": 1.0},
                }
            },
            "totals": {"dissatisfaction": 6.0},
        }
        text = format_reason_table({"sqlb": table})
        assert "== sqlb ==" in text
        assert "dissatisfaction" in text
        assert "6.0%" in text


class TestFormatSurface:
    def test_renders_thinned_grid(self):
        x = np.linspace(-1, 1, 21)
        y = np.linspace(0, 2, 21)
        surface = np.outer(x, y)
        text = format_surface(
            x, y, surface, "intention", x_label="pref", y_label="ut",
            max_rows=5, max_cols=5,
        )
        lines = text.splitlines()
        assert lines[0] == "# intention"
        assert len(lines) <= 7

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            format_surface(
                np.zeros(3), np.zeros(4), np.zeros((4, 3)), "x"
            )
