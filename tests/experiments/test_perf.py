"""Tests for the throughput-regression harness (``repro perf``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.cli as cli
import repro.experiments.perf as perf
from repro.experiments.perf import (
    PERF_MATRIX,
    PerfCell,
    compare_reports,
    format_report,
    load_report,
    run_perf,
    write_report,
)
from repro.simulation.config import WorkloadSpec, tiny_config
from repro.simulation.engine import ENGINE_VERSION


def report_with(cells: dict) -> dict:
    return {
        "engine_version": ENGINE_VERSION,
        "mode": "full",
        "python": "3",
        "numpy": "2",
        "seed": 1,
        "cells": cells,
        "aggregate_qps": 1000.0,
    }


TINY_MATRIX = (
    PerfCell(
        "tiny_captive",
        lambda: tiny_config(duration=30.0, workload=WorkloadSpec.fixed(0.8)),
        quick=True,
    ),
)


class TestRunPerf:
    def test_quick_run_reports_every_cell_method_pair(self, monkeypatch):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        report = run_perf(quick=True, methods=("sqlb", "capacity"))
        assert report["mode"] == "quick"
        assert report["engine_version"] == ENGINE_VERSION
        assert set(report["cells"]) == {
            "tiny_captive/sqlb",
            "tiny_captive/capacity",
        }
        for cell in report["cells"].values():
            assert cell["queries"] > 0
            assert cell["seconds"] > 0
            assert cell["qps"] > 0
        assert report["aggregate_qps"] > 0

    def test_quick_subset_is_marked_on_the_standard_matrix(self):
        quick = [cell.name for cell in PERF_MATRIX if cell.quick]
        full = [cell.name for cell in PERF_MATRIX]
        assert quick == ["captive_small", "autonomy_small"]
        assert full == [
            "captive_small",
            "autonomy_small",
            "captive_large",
            "autonomy_large",
        ]

    def test_format_report_lists_cells_and_aggregate(self, monkeypatch):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        report = run_perf(quick=True, methods=("sqlb",))
        text = format_report(report)
        assert "tiny_captive/sqlb" in text
        assert "aggregate" in text

    def test_report_round_trips_through_json(self, monkeypatch, tmp_path):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        report = run_perf(quick=True, methods=("sqlb",))
        path = tmp_path / "bench.json"
        write_report(report, str(path))
        assert load_report(str(path)) == json.loads(
            json.dumps(report)
        )

    def test_phase_breakdown_rides_along_by_default(self, monkeypatch):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        report = run_perf(quick=True, methods=("sqlb",))
        phases = report["cells"]["tiny_captive/sqlb"]["phases"]
        assert set(phases) == {
            "arrival",
            "candidate_lookup",
            "scoring",
            "ranking",
            "log_push",
        }
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) > 0.0

    def test_no_phases_omits_the_breakdown(self, monkeypatch):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        report = run_perf(quick=True, methods=("sqlb",), phases=False)
        assert "phases" not in report["cells"]["tiny_captive/sqlb"]


class TestCompareReports:
    def test_passes_within_tolerance(self):
        baseline = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        current = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 800}})
        assert compare_reports(current, baseline, tolerance=0.30) == []

    def test_flags_regression_beyond_tolerance(self):
        baseline = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        current = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 500}})
        problems = compare_reports(current, baseline, tolerance=0.30)
        assert len(problems) == 1
        assert "a/sqlb" in problems[0]

    def test_only_shared_cells_are_compared(self):
        baseline = report_with(
            {
                "a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000},
                "b/sqlb": {"queries": 1, "seconds": 1, "qps": 1000},
            }
        )
        current = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 990}})
        assert compare_reports(current, baseline) == []

    def test_disjoint_cells_is_an_error_not_a_pass(self):
        baseline = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        current = report_with({"b/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        problems = compare_reports(current, baseline)
        assert problems and "no overlapping cells" in problems[0]

    def test_rejects_nonsense_tolerance(self):
        report = report_with({})
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance=0.0)
        with pytest.raises(ValueError):
            compare_reports(report, report, tolerance=1.5)


class TestPerfCli:
    def test_parses_defaults(self):
        args = cli.build_parser().parse_args(["perf"])
        assert args.command == "perf"
        assert not args.quick
        assert args.tolerance == pytest.approx(0.30)
        assert args.out is None and args.check is None

    def test_check_exits_nonzero_on_regression(
        self, monkeypatch, tmp_path, capsys
    ):
        baseline = report_with(
            {"tiny_captive/sqlb": {"queries": 1, "seconds": 1, "qps": 10.0e9}}
        )
        baseline_path = tmp_path / "baseline.json"
        write_report(baseline, str(baseline_path))
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        monkeypatch.setattr(
            cli,
            "run_perf",
            lambda quick, repeats, phases=True: run_perf(
                quick, methods=("sqlb",), repeats=repeats, phases=phases
            ),
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["perf", "--quick", "--check", str(baseline_path)])
        assert "regression" in str(excinfo.value)

    def test_check_passes_against_committed_style_baseline(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        fresh = run_perf(quick=True, methods=("sqlb",))
        baseline_path = tmp_path / "baseline.json"
        write_report(fresh, str(baseline_path))
        # --check is fed the baseline's own report, so this checks the
        # CLI path, not how fast the host runs seconds later.
        monkeypatch.setattr(
            cli, "run_perf", lambda quick, repeats, phases=True: fresh
        )
        out_path = tmp_path / "current.json"
        assert (
            cli.main(
                [
                    "perf",
                    "--quick",
                    "--check",
                    str(baseline_path),
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "no regression" in printed
        assert out_path.exists()

    def test_missing_baseline_is_a_clean_error(self, monkeypatch):
        monkeypatch.setattr(perf, "PERF_MATRIX", TINY_MATRIX)
        monkeypatch.setattr(
            cli,
            "run_perf",
            lambda quick, repeats, phases=True: run_perf(
                quick, methods=("sqlb",), repeats=repeats, phases=phases
            ),
        )
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["perf", "--quick", "--check", "/nonexistent.json"])
        assert "cannot read baseline" in str(excinfo.value)


class TestCommittedBaseline:
    def test_bench_engine_json_matches_the_standard_matrix(self):
        """The committed baseline stays in sync with PERF_MATRIX."""
        baseline = load_report(
            str(Path(__file__).parents[2] / "BENCH_engine.json")
        )
        assert baseline["engine_version"] == ENGINE_VERSION
        expected = {
            f"{cell.name}/{method}"
            for cell in PERF_MATRIX
            for method in ("sqlb", "capacity", "mariposa")
        }
        assert set(baseline["cells"]) == expected


class TestModeMixing:
    def test_full_run_against_quick_baseline_is_flagged(self):
        baseline = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        baseline["mode"] = "quick"
        current = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        problems = compare_reports(current, baseline)
        assert problems and "quick-mode" in problems[0]

    def test_quick_run_against_full_baseline_is_fine(self):
        baseline = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        current = report_with({"a/sqlb": {"queries": 1, "seconds": 1, "qps": 1000}})
        current["mode"] = "quick"
        assert compare_reports(current, baseline) == []
