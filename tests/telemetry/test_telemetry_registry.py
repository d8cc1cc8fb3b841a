"""Tests for the process-local registry and its enable/disable plumbing."""

from __future__ import annotations

import math

import pytest

from repro.telemetry.events import read_events
from repro.telemetry.quantiles import SUB_BUCKETS
from repro.telemetry.registry import (
    TELEMETRY_DIR_ENV,
    Telemetry,
    configure_telemetry,
    get_telemetry,
    telemetry_session,
)


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    """Leave every test with telemetry disabled and unresolved."""
    monkeypatch.delenv(TELEMETRY_DIR_ENV, raising=False)
    configure_telemetry(enabled=False)
    yield
    configure_telemetry(enabled=False)


class TestActivation:
    def test_disabled_by_default(self):
        assert get_telemetry() is None

    def test_environment_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path))
        import repro.telemetry.registry as registry

        registry._switch.reset()
        telemetry = get_telemetry()
        assert telemetry is not None
        assert telemetry.events_dir == tmp_path

    def test_configure_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TELEMETRY_DIR_ENV, str(tmp_path))
        configure_telemetry(enabled=False)
        assert get_telemetry() is None

    def test_session_scopes_and_restores(self):
        assert get_telemetry() is None
        with telemetry_session() as telemetry:
            assert get_telemetry() is telemetry
            assert telemetry.events_dir is None
        assert get_telemetry() is None


class TestMetrics:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        telemetry.count("store.hits")
        telemetry.count("store.hits", 4)
        assert telemetry.counters["store.hits"] == 5

    def test_gauges_keep_last_value(self):
        telemetry = Telemetry()
        telemetry.gauge("queue.depth", 10)
        telemetry.gauge("queue.depth", 3)
        assert telemetry.gauges["queue.depth"] == 3.0

    def test_timer_snapshot(self):
        telemetry = Telemetry()
        for seconds in (0.1, 0.2, 0.3):
            telemetry.observe("engine.dispatch_s", seconds)
        snapshot = telemetry.timers["engine.dispatch_s"].snapshot()
        assert snapshot["count"] == 3
        assert snapshot["total_s"] == pytest.approx(0.6)
        assert snapshot["mean_s"] == pytest.approx(0.2)
        assert snapshot["min_s"] == 0.1
        assert snapshot["max_s"] == 0.3
        # The histogram's median is within one bucket of the exact 0.2.
        assert abs(snapshot["p50_s"] - 0.2) <= 0.2 / SUB_BUCKETS

    def test_empty_timer_snapshot_has_no_nans_except_quantiles(self):
        stats = Telemetry()
        stats.observe("t", 1.0)
        empty = type(stats.timers["t"])()
        snapshot = empty.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min_s"] == 0.0
        assert math.isnan(snapshot["p99_s"])


class TestSpans:
    def test_nesting_records_parents(self):
        telemetry = Telemetry()
        with telemetry.span("run", "sqlb") as run_id:
            with telemetry.span("phase", "scoring"):
                telemetry.event("queue", "claim")
        by_name = {event["name"]: event for event in telemetry.events}
        assert by_name["claim"]["parent"] == by_name["scoring"]["id"]
        assert by_name["scoring"]["parent"] == run_id
        assert by_name["sqlb"]["parent"] is None


class TestFlush:
    def test_in_memory_flush_is_a_noop(self):
        assert Telemetry().flush() is None

    def test_flush_round_trips_with_trailing_snapshot(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        telemetry.count("executor.jobs")
        telemetry.event("queue", "claim", attrs={"id": "j1"})
        path = telemetry.flush()
        events = read_events(path)
        assert [event["kind"] for event in events] == ["queue", "snapshot"]
        assert events[-1]["attrs"]["counters"] == {"executor.jobs": 1}

    def test_repeated_flush_replaces_not_appends(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        telemetry.event("queue", "claim")
        telemetry.flush()
        telemetry.event("queue", "ack")
        path = telemetry.flush()
        kinds = [event["kind"] for event in read_events(path)]
        assert kinds == ["queue", "queue", "snapshot"]

    def test_distinct_instances_use_distinct_files(self, tmp_path):
        first, second = Telemetry(tmp_path), Telemetry(tmp_path)
        first.event("queue", "claim")
        second.event("queue", "ack")
        assert first.flush() != second.flush()
        assert len(list(tmp_path.glob("events-*.jsonl"))) == 2
