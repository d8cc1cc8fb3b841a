"""Ops bundle: deterministic single-file HTML, embedded data blob."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry.bundle import render_bundle, write_bundle
from repro.telemetry.registry import Telemetry
from tests.telemetry.test_timeline import two_worker_drain

HISTORY = Path(__file__).parents[2] / "BENCH_history.jsonl"


class TestDeterminism:
    def test_double_render_is_byte_identical(self):
        events = two_worker_drain()
        assert render_bundle(events) == render_bundle(events)

    def test_write_bundle_round_trip(self, tmp_path):
        out = tmp_path / "bundle.html"
        write_bundle(out, two_worker_drain())
        first = out.read_bytes()
        write_bundle(out, two_worker_drain())
        assert out.read_bytes() == first
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]


class TestContent:
    def test_sections_present(self):
        html = render_bundle(two_worker_drain())
        assert "<svg" in html  # worker lanes
        assert "Drain decomposition" in html
        assert "Engine phases" in html
        assert "Fleet counters" in html
        assert "straggler <b>w1</b>" in html

    def test_self_contained(self):
        html = render_bundle(two_worker_drain())
        # No external fetches of any kind.
        assert "http://" not in html.replace(
            "http://www.w3.org/2000/svg", ""
        )
        assert "https://" not in html
        assert "<link" not in html
        assert 'src="' not in html

    def test_embedded_blob_parses_and_matches(self):
        html = render_bundle(two_worker_drain())
        marker = '<script type="application/json" id="bundle-data">'
        start = html.index(marker) + len(marker)
        end = html.index("</script>", start)
        blob = json.loads(html[start:end].replace("<\\/", "</"))
        assert blob["timeline"]["drain"]["jobs"] == 3

    def test_title_is_escaped(self):
        html = render_bundle([], title="<drain> & co")
        assert "<title>&lt;drain&gt; &amp; co</title>" in html

    def test_empty_stream_renders(self):
        html = render_bundle([])
        assert "no acked jobs to draw" in html


class TestBenchHistorySection:
    ROWS = [
        {"t": 1754000000, "mode": "quick", "engine_version": "1",
         "aggregate_qps": 5000.0, "cells": {"a": 1}},
        {"t": 1754100000, "mode": "quick", "engine_version": "1",
         "aggregate_qps": 5500.0, "cells": {"a": 1}},
        {"mode": "full", "engine_version": "1",
         "aggregate_qps": 9000.0, "cells": {"a": 1, "b": 2}},
    ]

    def test_section_present_and_deterministic(self):
        events = two_worker_drain()
        html = render_bundle(events, bench_history=self.ROWS)
        assert "Benchmark history" in html
        # Per-mode delta: second quick row vs first, full row has none.
        assert "+10%" in html
        assert "baseline" in html
        # Timestamps render in UTC — independent of the reader's TZ.
        assert "2025-07-31 22:13" in html
        assert html == render_bundle(events, bench_history=self.ROWS)

    def test_omitted_when_not_provided(self):
        assert "Benchmark history" not in render_bundle(two_worker_drain())


class TestBundleCli:
    @pytest.fixture
    def events_dir(self, tmp_path):
        telemetry = Telemetry(tmp_path / "tele")
        telemetry.event("phase", "scoring", duration_s=0.5)
        telemetry.flush()
        return tmp_path / "tele"

    def test_double_render_with_history_is_byte_identical(
        self, events_dir, tmp_path
    ):
        renders = []
        for name in ("first.html", "second.html"):
            out = tmp_path / name
            main([
                "telemetry", "bundle", str(events_dir), "--out", str(out),
                "--bench-history", str(HISTORY),
            ])
            renders.append(out.read_bytes())
        assert renders[0] == renders[1]
        assert b"Benchmark history" in renders[0]

    def test_retired_bench_flag_is_refused(self, events_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "telemetry", "bundle", str(events_dir),
                "--out", str(tmp_path / "out.html"), "--bench", str(HISTORY),
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bench" in capsys.readouterr().err


class TestAuditSection:
    PAYLOAD = {
        "method": "sqlb",
        "seed": 3,
        "decisions": 100,
        "unserved": 2,
        "imposed": 5,
        "anomaly_count": 1,
        "providers": [
            {"provider": 0, "allocations": 60, "share": 0.6,
             "capacity_share": 0.5, "imposed": 5},
            {"provider": 1, "allocations": 40, "share": 0.4,
             "capacity_share": 0.5, "imposed": 0},
        ],
        "anomalies": [
            {"kind": "starvation", "provider": 1, "longest_gap": 80,
             "expected_gap": 2.0, "capacity_share": 0.5,
             "allocations": 40},
        ],
    }

    def test_section_present_and_deterministic(self):
        events = two_worker_drain()
        html = render_bundle(events, audit=[self.PAYLOAD])
        assert "Decision audit — sqlb seed 3" in html
        assert "<b>starvation</b>" in html
        assert html == render_bundle(events, audit=[self.PAYLOAD])

    def test_blob_carries_audit_payloads(self):
        html = render_bundle(two_worker_drain(), audit=[self.PAYLOAD])
        marker = '<script type="application/json" id="bundle-data">'
        start = html.index(marker) + len(marker)
        end = html.index("</script>", start)
        blob = json.loads(html[start:end].replace("<\\/", "</"))
        assert blob["audit"][0]["method"] == "sqlb"
        assert blob["bench_history"] is None

    def test_omitted_when_not_provided(self):
        assert "Decision audit" not in render_bundle(two_worker_drain())
