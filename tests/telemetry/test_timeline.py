"""Drain timeline math: exact decomposition, stragglers, orphans."""

from __future__ import annotations

import pytest

from repro.telemetry.timeline import drain_timeline, format_timeline

TA = "aaaaaaaaaaaaaaaa"
TB = "bbbbbbbbbbbbbbbb"
TC = "cccccccccccccccc"


def ev(kind, name, t, pid=1, dur=0.0, span=1, **attrs):
    return {
        "v": 1,
        "kind": kind,
        "name": name,
        "id": span,
        "parent": None,
        "pid": pid,
        "t_wall": t,
        "dur_s": dur,
        "attrs": attrs,
    }


def claim(job, owner, trace, t, pid=1):
    return ev("queue", "claim", t, pid=pid, id=job, owner=owner, trace=trace)


def ack(job, owner, trace, t, pid=1, state="simulated"):
    return ev(
        "queue", "ack", t, pid=pid,
        id=job, owner=owner, state=state, trace=trace,
    )


def two_worker_drain():
    """w1 runs jobs A then B; w2 runs job C.  Engine spans on other pids."""
    return [
        claim("A", "w1", TA, 100.0),
        claim("C", "w2", TC, 100.5),
        ev("cell", "sqlb/seed1", 103.9, pid=11, dur=3.0, trace=TA),
        ev("phase", "arrivals", 101.5, pid=11, dur=1.0, trace=TA),
        ev("phase", "arrivals", 103.0, pid=11, dur=3.0, trace=TA),
        ev("run", "sqlb", 103.8, pid=11, dur=3.2, trace=TA),
        ev("cell", "sqlb/seed3", 101.9, pid=22, dur=1.0, trace=TC),
        ev("phase", "arrivals", 101.8, pid=22, dur=2.0, trace=TC),
        ack("C", "w2", TC, 102.0),
        ack("A", "w1", TA, 104.0),
        claim("B", "w1", TB, 105.0),
        ev("cell", "sqlb/seed2", 107.9, pid=11, dur=2.0, trace=TB),
        ack("B", "w1", TB, 108.0),
    ]


class TestDecomposition:
    def test_queue_wait_execute_idle_sum_to_wall_per_worker(self):
        timeline = drain_timeline(two_worker_drain())
        for lane in timeline["workers"].values():
            assert lane["queue_wait_s"] + lane["execute_s"] + lane[
                "idle_s"
            ] == pytest.approx(lane["wall_s"])

    def test_w1_lane_numbers_exactly(self):
        lane = drain_timeline(two_worker_drain())["workers"]["w1"]
        assert lane["jobs"] == 2
        assert lane["wall_s"] == pytest.approx(8.0)  # 100 → 108
        assert lane["execute_s"] == pytest.approx(5.0)  # 3 + 2
        # busy = (104-100) + (108-105) = 7 → wait 2, idle 1
        assert lane["queue_wait_s"] == pytest.approx(2.0)
        assert lane["idle_s"] == pytest.approx(1.0)
        assert lane["utilization"] == pytest.approx(5.0 / 8.0)

    def test_job_rows_split_wall_into_execute_and_overhead(self):
        jobs = {j["id"]: j for j in drain_timeline(two_worker_drain())["jobs"]}
        job = jobs["A"]
        assert job["wall_s"] == pytest.approx(4.0)
        assert job["execute_s"] == pytest.approx(3.0)
        assert job["overhead_s"] == pytest.approx(1.0)
        assert job["owner"] == "w1"
        assert job["state"] == "simulated"
        assert job["spans"] == {"cells": 1, "runs": 1, "phases": 2}

    def test_drain_summary(self):
        drain = drain_timeline(two_worker_drain())["drain"]
        assert drain["jobs"] == 3
        assert drain["acked"] == 3
        assert drain["unacked"] == 0
        assert drain["workers"] == 2
        assert drain["wall_s"] == pytest.approx(8.0)
        assert drain["orphan_spans"] == 0


class TestCriticalPath:
    def test_straggler_is_last_acking_lane(self):
        critical = drain_timeline(two_worker_drain())["critical_path"]
        assert critical["straggler"] == "w1"
        assert critical["jobs"] == ["A", "B"]
        assert critical["chain_s"] == pytest.approx(7.0)
        assert critical["longest_job"]["id"] == "A"


class TestOrphansAndRetries:
    def test_traceless_engine_span_is_an_orphan(self):
        events = two_worker_drain() + [
            ev("phase", "arrivals", 109.0, pid=33, dur=0.5)
        ]
        assert drain_timeline(events)["drain"]["orphan_spans"] == 1

    def test_unclaimed_trace_spans_are_orphans(self):
        events = two_worker_drain() + [
            ev("cell", "x", 109.0, pid=33, dur=0.5, trace="d" * 16),
            ev("run", "x", 109.0, pid=33, dur=0.5, trace="d" * 16),
        ]
        assert drain_timeline(events)["drain"]["orphan_spans"] == 2

    def test_unacked_job_counted_but_not_in_lanes(self):
        events = two_worker_drain() + [claim("D", "w3", "e" * 16, 109.0)]
        timeline = drain_timeline(events)
        assert timeline["drain"]["unacked"] == 1
        assert "w3" not in timeline["workers"]
        [job] = [j for j in timeline["jobs"] if j["id"] == "D"]
        assert job["state"] == "unacked"
        assert job["ack_t"] is None

    def test_retry_counts_attempts_and_uses_last_claim(self):
        events = [
            claim("A", "w-dead", TA, 100.0),
            claim("A", "w1", TA, 110.0),
            ack("A", "w1", TA, 112.0),
        ]
        [job] = drain_timeline(events)["jobs"]
        assert job["attempts"] == 2
        assert job["wall_s"] == pytest.approx(2.0)
        assert job["owner"] == "w1"

    def test_snapshot_and_merge_events_ignored(self):
        events = two_worker_drain() + [
            ev("snapshot", "registry", 200.0),
            ev("merge", "manifest", 200.0),
        ]
        drain = drain_timeline(events)["drain"]
        assert drain["events"] == len(two_worker_drain())
        assert drain["orphan_spans"] == 0


class TestMergedPhaseQuantiles:
    def test_union_quantiles_across_pids(self):
        stats = drain_timeline(two_worker_drain())["phases"]["arrivals"]
        assert stats["count"] == 3
        assert stats["total_s"] == pytest.approx(6.0)
        assert stats["mean_s"] == pytest.approx(2.0)
        assert stats["max_s"] == pytest.approx(3.0)
        # pid 11's [1.0, 3.0] and pid 22's [2.0]: the union's median.
        assert stats["p50_s"] == pytest.approx(2.0)

    def test_p50_is_the_union_median_not_a_weighted_average(self):
        events = [claim("A", "w1", TA, 100.0)] + [
            ev("phase", "scoring", 101.0, pid=pid, dur=seconds, trace=TA)
            for pid, seconds in ((11, 1.0), (11, 2.0), (11, 3.0), (22, 10.0))
        ]
        stats = drain_timeline(events)["phases"]["scoring"]
        # The median of [1, 2, 3, 10], not the count-weighted mean of
        # per-pid medians, (2.0 * 3 + 10.0) / 4 = 4.0.
        assert stats["p50_s"] == 2.5


class TestFormatting:
    def test_human_table_smoke(self):
        text = format_timeline(drain_timeline(two_worker_drain()))
        assert "worker lanes" in text
        assert "w1" in text and "w2" in text
        assert "straggler w1" in text
        assert "arrivals" in text

    def test_empty_stream_renders(self):
        text = format_timeline(drain_timeline([]))
        assert "jobs 0" in text
