"""Tests for queue monitoring: status payload, liveness, ETA, report."""

from __future__ import annotations

import json

from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore
from repro.scheduler.monitor import (
    format_queue_status,
    queue_report,
    queue_status,
)
from repro.scheduler.queue import WorkQueue
from repro.scheduler.worker import QueueWorker
from repro.sweeps.aggregate import format_sweep_table
from repro.sweeps.spec import SweepSpec

TTL = 30.0


def spec() -> SweepSpec:
    return SweepSpec(
        name="monitor-unit",
        scenarios=("captive_fixed_80",),
        methods=("sqlb", "capacity"),
        seeds=(1,),
        scale="tiny",
    )


def executor_for(path) -> ExperimentExecutor:
    return ExperimentExecutor(workers=1, store=ResultStore(path))


class TestQueueStatus:
    def test_fresh_queue(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        status = queue_status(queue)
        assert status["name"] == "monitor-unit"
        assert status["spec_hash"] == spec().spec_hash()
        assert status["counts"] == {
            "jobs": 2, "pending": 2, "leased": 0, "done": 0, "errors": 0,
        }
        assert not status["drained"]
        assert status["workers"] == []
        assert status["eta_seconds"] is None  # no durations yet
        assert status["adaptive"] == {"enabled": False}
        assert "manifests" not in status

    def test_worker_liveness_against_injected_now(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        queue.claim("alive", TTL, now=1000.0)
        queue.heartbeat("stale", TTL, now=0.0)
        status = queue_status(queue, now=1000.0 + TTL / 2.0)
        by_owner = {w["owner"]: w for w in status["workers"]}
        assert by_owner["alive"]["alive"]
        assert by_owner["alive"]["leases"] == 1
        assert not by_owner["stale"]["alive"]
        assert by_owner["stale"]["leases"] == 0

    def test_heartbeat_with_an_empty_owner_is_dead(self, tmp_path):
        # An owner that sanitises to nothing has no heartbeat file of
        # its own: listed as dead, where status used to die on it.
        queue = WorkQueue.init(tmp_path / "q", spec())
        queue.heartbeat("w", TTL, now=1000.0)
        path = queue.heartbeats_dir / "w.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "owner": ""}))
        [worker] = queue_status(queue, now=1000.0)["workers"]
        assert worker["owner"] == ""
        assert not worker["alive"] and worker["stale"]
        assert queue.heartbeat_deadline("") == float("-inf")
        assert "no" in format_queue_status(queue_status(queue, now=1000.0))

    def test_eta_extrapolates_mean_duration(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        lease = queue.claim("w", TTL, now=1000.0)
        queue.ack(lease, "simulated", duration_s=2.0)
        status = queue_status(queue, now=1000.0)
        # One job left, one live worker, 2 s mean duration.
        assert status["eta_seconds"] == 2.0
        # Drained queues report a zero ETA regardless of durations.
        queue.ack(queue.claim("w", TTL, now=1000.0), "simulated", 4.0)
        assert queue_status(queue, now=1000.0)["eta_seconds"] == 0.0

    def test_store_manifests_ride_along(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        status = queue_status(queue, store_root=str(tmp_path / "store"))
        [row] = status["manifests"]
        assert row["worker"] == "w"
        assert row["jobs"] == 2
        assert row["simulated"] == 2
        assert not row["stale"]

    def test_human_rendering_smoke(self, tmp_path):
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive={
                "ci_threshold": 0.5,
                "max_seeds": 10,
                "seed_batch": 2,
                "metric": "response_time_post_warmup",
            },
        )
        queue.claim("render", TTL)
        text = format_queue_status(queue_status(queue))
        assert "monitor-unit" in text
        assert "pending: 1" in text
        assert "render" in text
        assert "adaptive: ci_threshold=0.5s" in text


class TestQueueReport:
    def test_reports_only_completed_cells(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        QueueWorker(
            queue, executor=executor, owner="w", ttl=TTL, max_jobs=1
        ).run()
        summaries = queue_report(queue, executor=executor)
        assert len(summaries) == 1  # one cell done, one still pending
        assert executor.simulations_run == 1  # report added no work

    def test_drained_queue_reports_every_cell(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        summaries = queue_report(queue, executor=executor)
        assert [(s.scenario, s.method) for s in summaries] == [
            ("captive_fixed_80", "sqlb"),
            ("captive_fixed_80", "capacity"),
        ]
        table = format_sweep_table(summaries)
        assert "captive_fixed_80" in table
        # Single-seed cells render an undefined CI, never "nan".
        assert "--" in table
        assert "nan" not in table


class TestDeadFleetEta:
    def test_no_live_workers_means_no_eta(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        lease = queue.claim("w", TTL, now=1000.0)
        queue.ack(lease, "simulated", duration_s=2.0)
        # One job outstanding, but the only worker's deadline passed.
        status = queue_status(queue, now=1000.0 + TTL * 10)
        assert status["counts"]["pending"] == 1
        assert status["eta_seconds"] is None
