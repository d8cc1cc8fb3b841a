"""Perf history JSONL: append-only rows, torn-tail tolerance, trend."""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.perf import format_history, load_history
from repro.telemetry.bundle import history_trend, render_bundle

COMMITTED = Path(__file__).parents[2] / "BENCH_history.jsonl"


def row(aggregate=5000.0, mode="quick", t=1.0):
    return {
        "t": t,
        "engine_version": "1",
        "mode": mode,
        "aggregate_qps": aggregate,
        "cells": {
            "captive_small/sqlb": {
                "qps": aggregate,
                "phases": {"arrival": 0.01},
            }
        },
    }


def append_rows(path, *rows):
    with open(path, "a", encoding="utf-8") as handle:
        for each in rows:
            handle.write(json.dumps(each, sort_keys=True) + "\n")


@pytest.fixture
def far_timezone(monkeypatch):
    """Run in UTC+05:30, so a local-time rendering would show."""
    with monkeypatch.context() as patch:
        patch.setenv("TZ", "IST-5:30")
        time.tzset()
        yield
    time.tzset()


class TestAppendAndLoad:
    def test_rows_accumulate_in_order(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_rows(path, row(1000.0, t=1.0))
        append_rows(path, row(2000.0, t=2.0))
        rows = load_history(str(path))
        assert [each["aggregate_qps"] for each in rows] == [1000.0, 2000.0]

    def test_torn_tail_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_rows(path, row())
        with open(path, "a") as handle:
            handle.write("\n")
            handle.write('{"t": 2.0, "aggregate')  # crashed writer
        assert len(load_history(str(path))) == 1

    def test_rows_without_cells_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"t": 1.0}) + "\n")
        assert load_history(str(path)) == []

    def test_committed_seed_row_loads(self):
        # BENCH_history.jsonl is seeded from the retired engine
        # baseline with a null timestamp; it must parse and render
        # forever.
        rows = load_history(str(COMMITTED))
        assert rows
        assert rows[0]["t"] is None
        assert rows[0]["source"] == "BENCH_engine.json"
        assert rows[0]["aggregate_qps"] > 0
        assert "baseline" in format_history(rows)


class TestFormatHistory:
    def test_delta_compares_same_mode_only(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_rows(
            path,
            row(1000.0, mode="quick", t=1.0),
            row(9000.0, mode="full", t=2.0),
            row(1100.0, mode="quick", t=3.0),
        )
        text = format_history(load_history(str(path)))
        # 1100 vs 1000 (same mode) = +10%, never vs the full row.
        assert "+10%" in text
        lines = text.splitlines()
        assert len(lines) == 4  # header + 3 rows

    def test_empty_history_renders(self):
        assert format_history([]) == "no perf history rows"

    def test_text_and_bundle_show_the_same_trend(self):
        rows = [
            row(5000.0, t=1754000000),
            row(9000.0, mode="full", t=None),
            row(5500.0, t=1754100000),
        ]
        trend = history_trend(rows)
        assert [(each["when"], each["delta"]) for each in trend] == [
            ("2025-07-31 22:13", "-"),
            ("baseline", "-"),
            ("2025-08-02 02:00", "+10%"),
        ]
        text_rows = format_history(rows).splitlines()[1:]
        html_rows = re.findall(
            r"<tr><td>([^<]*)</td>(?:<td>[^<]*</td>){3}<td>([^<]*)</td>",
            render_bundle([], bench_history=rows),
        )
        assert html_rows == [(each["when"], each["delta"]) for each in trend]
        for line, each in zip(text_rows, trend, strict=True):
            assert line.startswith(each["when"])
            assert line.split()[-2] == each["delta"]


class TestHistoryCli:
    def test_prints_the_committed_rows_in_utc(self, capsys, far_timezone):
        rows = load_history(str(COMMITTED))
        assert main(["perf", "history", str(COMMITTED)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("when (UTC)")
        assert len(lines) == 1 + len(rows)
        for line, each in zip(lines[1:], rows, strict=True):
            stamp = each["t"]
            when = (
                "baseline"
                if stamp is None
                else time.strftime("%Y-%m-%d %H:%M", time.gmtime(stamp))
            )
            assert line.startswith(when)
            assert f"{each['aggregate_qps']:,.0f}" in line

    def test_json_prints_the_raw_rows(self, capsys):
        assert main(["perf", "history", str(COMMITTED), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == load_history(str(COMMITTED))

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read history"):
            main(["perf", "history", str(tmp_path / "absent.jsonl")])

    @pytest.mark.parametrize(
        "flag", ["--quick", "--out", "--check", "--tolerance", "--repeats",
                 "--no-phases", "--history"],
    )
    def test_the_timing_flags_are_gone(self, flag, capsys):
        for argv in (["perf", flag], ["perf", "history", str(COMMITTED), flag]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
