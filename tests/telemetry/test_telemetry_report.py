"""Tests for the telemetry report: aggregation, merging, rendering."""

from __future__ import annotations

import json

import pytest

from repro.reliability.durability import atomic_write
from repro.cli import main
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    TelemetryReadError,
    encode_event,
)
from repro.telemetry.quantiles import SUB_BUCKETS
from repro.telemetry.registry import Telemetry
from repro.telemetry.report import (
    PHASE_ORDER,
    aggregate_events,
    format_telemetry_report,
    telemetry_report,
)


def flush_process(tmp_path, *, pid_counters, phases=(), timer_obs=()):
    """Write one process's events file through the real registry."""
    telemetry = Telemetry(tmp_path)
    for name, seconds in phases:
        telemetry.event("phase", name, duration_s=seconds)
    for name, value in pid_counters.items():
        telemetry.count(name, value)
    for name, seconds in timer_obs:
        telemetry.observe(name, seconds)
    telemetry.flush()
    return telemetry


class TestAggregation:
    def test_phases_ordered_and_shared(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={},
            phases=[("log_push", 3.0), ("arrival", 1.0)],
        )
        report = telemetry_report(tmp_path)
        assert [row["phase"] for row in report["phases"]] == [
            "arrival",
            "log_push",
        ]
        assert report["phases"][0]["share"] == pytest.approx(0.25)
        assert report["phases"][1]["share"] == pytest.approx(0.75)

    def test_phase_events_sum_by_name(self):
        telemetry = Telemetry()
        telemetry.event("phase", "scoring", duration_s=0.5)
        telemetry.event("phase", "scoring", duration_s=0.25)
        telemetry.event("phase", "ranking", duration_s=1.0)
        telemetry.event("queue", "claim", duration_s=9.0)  # not a phase
        rows = aggregate_events(telemetry.events)["phases"]
        assert {row["phase"]: row["total_s"] for row in rows} == {
            "scoring": 0.75,
            "ranking": 1.0,
        }

    def test_counters_sum_across_processes(self, tmp_path):
        flush_process(tmp_path, pid_counters={"executor.jobs": 2})
        flush_process(tmp_path, pid_counters={"executor.jobs": 3})
        report = telemetry_report(tmp_path)
        assert report["counters"]["executor.jobs"] == 5
        assert report["processes"] == 1  # same pid, two files

    def test_cache_efficacy_rates(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={
                "engine.candidate_cache_hits": 9,
                "engine.candidate_cache_misses": 1,
                "store.hits": 1,
                "store.misses": 3,
                "engine.ring_uniform_pushes": 6,
                "engine.ring_scalar_pushes": 2,
            },
        )
        caches = telemetry_report(tmp_path)["caches"]
        assert caches["candidate_cache"]["hit_rate"] == pytest.approx(0.9)
        assert caches["result_store"]["hit_rate"] == pytest.approx(0.25)
        assert caches["ring_push"]["fast_path_share"] == pytest.approx(0.75)

    def test_empty_rates_are_none_not_zero_division(self, tmp_path):
        flush_process(tmp_path, pid_counters={})
        caches = telemetry_report(tmp_path)["caches"]
        assert caches["candidate_cache"]["hit_rate"] is None
        assert caches["result_store"]["hit_rate"] is None
        assert caches["ring_push"]["fast_path_share"] is None

    def test_timers_merge_exactly_where_possible(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={},
            timer_obs=[("executor.job_s", 1.0), ("executor.job_s", 3.0)],
        )
        flush_process(
            tmp_path,
            pid_counters={},
            timer_obs=[("executor.job_s", 5.0)],
        )
        timer = telemetry_report(tmp_path)["timers"]["executor.job_s"]
        assert timer["count"] == 3
        assert timer["total_s"] == pytest.approx(9.0)
        assert timer["mean_s"] == pytest.approx(3.0)
        assert timer["min_s"] == 1.0
        assert timer["max_s"] == 5.0
        # Merged buckets give the union's median, 3.0, within one bucket.
        assert abs(timer["p50_s"] - 3.0) <= 3.0 / SUB_BUCKETS

    def test_run_and_cell_span_counts(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        with telemetry.span("cell", "sqlb/seed1"):
            with telemetry.span("run", "sqlb"):
                pass
        telemetry.flush()
        report = telemetry_report(tmp_path)
        assert report["runs"] == 1
        assert report["cells"] == 1


class TestOneQuantileRule:
    """Report quantiles are those of the union of every process's
    observations, never an average of per-process quantiles."""

    def test_two_process_report_prints_the_union_median(
        self, tmp_path, capsys
    ):
        for pid, job_times in ((101, (1.0, 3.0)), (202, (5.0,))):
            telemetry = Telemetry(tmp_path)
            telemetry.pid = pid
            for seconds in job_times:
                telemetry.observe("executor.job_s", seconds)
            telemetry.flush()
        assert main(["telemetry", "report", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["processes"] == 2
        timer = report["timers"]["executor.job_s"]
        # Not the count-weighted mean of per-process medians, 2.33 s.
        assert abs(timer["p50_s"] - 3.0) <= 3.0 / SUB_BUCKETS
        assert sorted(timer) == [
            "count", "max_s", "mean_s", "min_s", "p50_s", "p90_s", "p99_s",
            "total_s",
        ]

    def test_snapshots_without_buckets_still_read(self, tmp_path):
        # A timer snapshot as written before timers kept buckets.
        older = {
            "count": 2, "total_s": 4.0, "mean_s": 2.0, "min_s": 1.0,
            "max_s": 3.0, "p50_s": 1.0, "p90_s": 3.0, "p99_s": 3.0,
        }
        event = {
            "v": EVENT_SCHEMA_VERSION, "kind": "snapshot",
            "name": "registry", "id": 0, "parent": None, "pid": 7,
            "t_wall": 1.0, "dur_s": 0.0,
            "attrs": {"counters": {}, "gauges": {},
                      "timers": {"executor.job_s": older}},
        }
        atomic_write(
            tmp_path / "events-older-7-0.jsonl",
            (encode_event(event) + "\n").encode("utf-8"),
        )
        timer = telemetry_report(tmp_path)["timers"]["executor.job_s"]
        assert timer == {
            **older, "p50_s": None, "p90_s": None, "p99_s": None,
        }
        # Beside a current file the union still lacks two observations'
        # buckets, so it has no quantiles either.
        flush_process(
            tmp_path, pid_counters={}, timer_obs=[("executor.job_s", 5.0)]
        )
        timer = telemetry_report(tmp_path)["timers"]["executor.job_s"]
        assert (timer["count"], timer["min_s"], timer["max_s"]) == (3, 1.0, 5.0)
        assert timer["total_s"] == pytest.approx(9.0)
        assert timer["p50_s"] is None


class TestRefusal:
    def test_torn_file_fails_the_whole_report(self, tmp_path):
        flush_process(tmp_path, pid_counters={"executor.jobs": 1})
        [path] = tmp_path.glob("events-*.jsonl")
        text = path.read_text()
        atomic_write(path, text[: len(text) - 10].encode())
        with pytest.raises(TelemetryReadError):
            telemetry_report(tmp_path)


class TestRendering:
    def test_human_format_smoke(self, tmp_path):
        flush_process(
            tmp_path,
            pid_counters={
                "engine.candidate_cache_hits": 9,
                "engine.candidate_cache_misses": 1,
                "executor.jobs": 2,
            },
            phases=[(name, 0.1) for name in PHASE_ORDER],
            timer_obs=[("engine.dispatch_s", 0.001)],
        )
        text = format_telemetry_report(telemetry_report(tmp_path))
        assert "phase breakdown:" in text
        assert "candidate cache" in text
        assert "90.0%" in text
        assert "engine.dispatch_s" in text
        assert "executor.jobs" in text
        # Cache counters are folded into the efficacy table, not
        # repeated in the counters listing.
        assert "engine.candidate_cache_hits" not in text
