"""Tests for the worker daemon: draining, crash recovery, manifests."""

from __future__ import annotations

import functools
import json
import os
import time
import threading

import pytest

from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore
from repro.reliability.retry import retry_io
from repro.scheduler.queue import WorkQueue
from repro.scheduler.worker import QueueWorker
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.aggregate import format_sweep_table, sweep_summary
from repro.sweeps.runner import SweepRunner, load_manifests
from repro.sweeps.spec import SweepSpec

TTL = 30.0


def spec() -> SweepSpec:
    return SweepSpec(
        name="unit",
        scenarios=("captive_fixed_80",),
        methods=("sqlb", "capacity"),
        seeds=(1, 2),
        scale="tiny",
    )


def executor_for(path) -> ExperimentExecutor:
    return ExperimentExecutor(workers=1, store=ResultStore(path))


class TestExpiryClock:
    def test_worker_adopts_the_queue_handle_clock(
        self, tmp_path, monkeypatch
    ):
        """Given no clock argument, a worker on an mtime queue
        scavenges by heartbeat-file mtime: a lease whose owner's clock
        runs a day fast, but whose heartbeat file went quiet three TTLs
        ago, is requeued and run."""
        queue = WorkQueue.init(tmp_path / "q", spec(), expiry_clock="mtime")
        skewed = queue.claim("skewed", TTL)
        while (other := queue.claim("elsewhere", TTL)) is not None:
            queue.ack(other, "simulated")
        heartbeat = queue.heartbeats_dir / "skewed.json"
        payload = json.loads(heartbeat.read_text())
        payload["deadline"] = time.time() + 86400.0
        heartbeat.write_text(json.dumps(payload))
        old = time.time() - 3.0 * TTL
        os.utime(heartbeat, (old, old))

        def idle(_seconds):
            raise AssertionError("worker idled beside an expired lease")

        # Judged by the wall deadline the lease would look alive and
        # the worker would poll forever; fail fast instead.
        monkeypatch.setattr(time, "sleep", idle)
        report = QueueWorker(
            queue,
            executor=executor_for(tmp_path / "store"),
            owner="survivor",
            ttl=TTL,
        ).run()
        assert report.requeued == 1
        assert report.processed == 1
        [record] = [
            r for r in queue.done_records() if r["id"] == skewed.job.id
        ]
        assert record["owner"] == "survivor"


class TestDrain:
    def test_single_worker_drains_the_queue(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        report = QueueWorker(
            queue, executor=executor, owner="solo", ttl=TTL
        ).run()
        assert report.processed == 4
        assert report.simulated == 4
        assert report.store_hits == 0
        assert queue.counts().drained
        assert executor.simulations_run == 4

    def test_worker_manifest_speaks_the_sweep_format(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        report = QueueWorker(
            queue, executor=executor, owner="manifesto", ttl=TTL
        ).run()
        manifest = json.loads(report.manifest_path.read_text())
        assert manifest["format"] == 1
        assert manifest["worker"] == "manifesto"
        assert manifest["spec_hash"] == spec().spec_hash()
        assert manifest["engine_version"] == ENGINE_VERSION
        assert len(manifest["jobs"]) == 4
        for entry in manifest["jobs"]:
            assert entry["state"] == "simulated"
            assert len(entry["key"]) == 64
        # load_manifests accepts it alongside shard manifests.
        [loaded] = load_manifests(tmp_path / "store")
        assert loaded["worker"] == "manifesto"

    def test_max_jobs_bounds_a_session(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        report = QueueWorker(
            queue, executor=executor, owner="bounded", ttl=TTL, max_jobs=1
        ).run()
        assert report.processed == 1
        assert queue.counts().done == 1
        assert queue.counts().pending == 3

    def test_storeless_executor_is_rejected(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        with pytest.raises(ValueError, match="store"):
            QueueWorker(queue, executor=ExperimentExecutor(workers=1)).run()

    def test_request_stop_exits_before_claiming(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        worker = QueueWorker(
            queue, executor=executor_for(tmp_path / "store"), owner="stopme"
        )
        worker.request_stop()
        report = worker.run()
        assert report.processed == 0
        assert report.stopped_by_signal
        assert queue.counts().pending == 4


class TestConcurrentWorkers:
    def test_two_workers_split_the_queue_without_duplicates(self, tmp_path):
        """Acceptance: two concurrent workers drain a queued sweep with
        zero duplicate simulations (store-hit dedupe)."""
        queue = WorkQueue.init(tmp_path / "q", spec())
        executors = [
            executor_for(tmp_path / "store"),
            executor_for(tmp_path / "store"),
        ]
        reports = [None, None]

        def drain(index: int) -> None:
            reports[index] = QueueWorker(
                queue,
                executor=executors[index],
                owner=f"worker-{index}",
                ttl=TTL,
            ).run()

        threads = [
            threading.Thread(target=drain, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert queue.counts().drained
        assert queue.counts().done == 4
        total_simulated = sum(e.simulations_run for e in executors)
        assert total_simulated == 4  # every job exactly once
        assert sum(r.processed for r in reports) == 4
        # Each worker that did work left its own manifest.
        manifests = load_manifests(tmp_path / "store")
        assert sum(len(m["jobs"]) for m in manifests) == 4

    def test_queue_store_reports_identically_to_static_shard(self, tmp_path):
        """Acceptance: `sweep report` over a queue-produced store is
        byte-identical to the same sweep run via static shard 1/1."""
        queue = WorkQueue.init(tmp_path / "q", spec())
        queue_executor = executor_for(tmp_path / "queue-store")
        QueueWorker(queue, executor=queue_executor, owner="q", ttl=TTL).run()
        assert queue_executor.simulations_run == 4
        queue_table = format_sweep_table(
            sweep_summary(spec(), executor=queue_executor)
        )
        # The report itself came entirely from the store.
        assert queue_executor.simulations_run == 4

        shard_executor = executor_for(tmp_path / "shard-store")
        SweepRunner(shard_executor).run_shard(spec(), 0, 1)
        shard_table = format_sweep_table(
            sweep_summary(spec(), executor=shard_executor)
        )
        assert queue_table == shard_table


class TestCrashRecovery:
    def test_expired_lease_is_requeued_and_deduped_by_the_store(
        self, tmp_path
    ):
        """Satellite: kill a worker mid-lease (simulated by an expired
        lease), assert the job is requeued, re-executed, and the result
        store dedupes the work to zero extra simulations."""
        # A first worker drains the whole queue into the shared store.
        warm_queue = WorkQueue.init(tmp_path / "q1", spec())
        first = executor_for(tmp_path / "store")
        QueueWorker(warm_queue, executor=first, owner="first", ttl=TTL).run()
        assert first.simulations_run == 4

        # Same sweep, fresh queue: a worker claims a job and "dies"
        # (its heartbeat deadline is already in the past).
        queue = WorkQueue.init(tmp_path / "q2", spec())
        dead_lease = queue.claim("dead-worker", TTL, now=0.0)
        assert dead_lease is not None
        assert queue.counts().leased == 1

        survivor_executor = executor_for(tmp_path / "store")
        report = QueueWorker(
            queue, executor=survivor_executor, owner="survivor", ttl=TTL
        ).run()

        # The survivor scavenged the dead worker's lease and ran
        # everything — but the store already had every result, so the
        # recovery cost zero extra simulations.
        assert report.requeued == 1
        assert report.processed == 4
        assert report.store_hits == 4
        assert report.simulated == 0
        assert survivor_executor.simulations_run == 0
        assert queue.counts().drained
        ticket_attempts = [
            record for record in queue.done_records()
            if record["id"] == dead_lease.job.id
        ]
        assert ticket_attempts[0]["owner"] == "survivor"


class TestOwnerSanitisation:
    def test_unsafe_owner_drains_and_writes_a_manifest(self, tmp_path):
        """An owner id needing sanitisation must not crash the manifest
        write at session end, and liveness joins on one spelling."""
        from repro.scheduler.monitor import queue_status

        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        worker = QueueWorker(
            queue, executor=executor, owner="ci/a b", ttl=TTL, max_jobs=1
        )
        assert worker.owner == "ci-a-b"
        report = worker.run()
        assert report.processed == 1
        assert report.manifest_path.is_file()
        assert "ci-a-b" in report.manifest_path.name
        # While alive (heartbeat published directly), liveness joins on
        # the sanitised spelling the lease filenames use.
        queue.heartbeat("ci/a b", TTL)
        status = queue_status(queue)
        [w] = [x for x in status["workers"] if x["owner"] == "ci-a-b"]
        assert w["alive"]


class _ExplodingExecutor(ExperimentExecutor):
    """Raises on every execution — a worst-case poison queue."""

    def run_detailed(self, jobs):
        raise RuntimeError("boom")


class TestPoisonJobs:
    def test_failing_jobs_are_bounded_not_crash_looped(self, tmp_path):
        """An execution that raises must not kill the worker; the job
        retries up to max_attempts, then parks as an error record."""
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=2)
        exploding = _ExplodingExecutor(
            workers=1, store=ResultStore(tmp_path / "store")
        )
        report = QueueWorker(
            queue, executor=exploding, owner="victim", ttl=TTL
        ).run()
        # Every job failed once (attempts=1, requeued) and once more
        # (attempts=2 = budget, parked); the worker survived to drain.
        assert report.processed == 0
        assert report.failed == 8  # 4 jobs x 2 attempts
        assert report.manifest_path is None
        counts = queue.counts()
        assert counts.drained
        assert counts.done == 4
        for record in queue.done_records():
            assert record["state"] == "error"
            assert record["attempts"] == 2
            assert "RuntimeError: boom" in record["error"]

    def test_error_records_do_not_poison_the_report(self, tmp_path):
        from repro.scheduler.monitor import queue_report, queue_status

        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=1)
        exploding = _ExplodingExecutor(
            workers=1, store=ResultStore(tmp_path / "store")
        )
        QueueWorker(
            queue, executor=exploding, owner="victim", ttl=TTL
        ).run()
        assert queue_status(queue)["counts"]["errors"] == 4
        assert queue_report(
            queue, executor=executor_for(tmp_path / "store")
        ) == []


class TestManifestSessions:
    def test_sessions_with_one_owner_keep_separate_manifests(self, tmp_path):
        """Cron-style re-runs under a fixed --owner must append a new
        manifest per session, not overwrite the previous one."""
        queue = WorkQueue.init(tmp_path / "q", spec())
        executor = executor_for(tmp_path / "store")
        first = QueueWorker(
            queue, executor=executor, owner="box1", ttl=TTL, max_jobs=3
        ).run()
        second = QueueWorker(
            queue, executor=executor, owner="box1", ttl=TTL
        ).run()
        assert first.manifest_path != second.manifest_path
        manifests = load_manifests(tmp_path / "store")
        assert len(manifests) == 2
        assert sum(len(m["jobs"]) for m in manifests) == 4


class TestReportStoreGuard:
    def test_report_refuses_a_store_missing_the_done_work(self, tmp_path):
        from repro.scheduler.monitor import queue_report

        queue = WorkQueue.init(tmp_path / "q", spec())
        QueueWorker(
            queue, executor=executor_for(tmp_path / "store"), ttl=TTL
        ).run()
        wrong_store = executor_for(tmp_path / "typo")
        with pytest.raises(ValueError, match="absent from the store"):
            queue_report(queue, executor=wrong_store)
        with pytest.raises(ValueError, match="store"):
            queue_report(queue, executor=ExperimentExecutor(workers=1))


class TestHeartbeatRetirement:
    def test_exited_worker_is_not_reported_alive(self, tmp_path):
        from repro.scheduler.monitor import queue_status

        queue = WorkQueue.init(tmp_path / "q", spec())
        QueueWorker(
            queue, executor=executor_for(tmp_path / "store"),
            owner="brief", ttl=TTL, max_jobs=1,
        ).run()
        assert all(
            b["owner"] != "brief" for b in queue.heartbeats()
        )
        assert queue_status(queue)["workers"] == []

    def test_exit_keeps_the_heartbeat_while_a_peer_holds_a_lease(
        self, tmp_path
    ):
        """A session sharing --owner with a mid-simulation peer must
        not delete the shared liveness on exit."""
        queue = WorkQueue.init(tmp_path / "q", spec())
        # The "peer": a lease held under the same owner id.
        queue.claim("shared", TTL)
        QueueWorker(
            queue, executor=executor_for(tmp_path / "store"),
            owner="shared", ttl=TTL, max_jobs=1,
        ).run()
        assert any(b["owner"] == "shared" for b in queue.heartbeats())
        # With no lease outstanding, exit retires the heartbeat.
        queue2 = WorkQueue.init(tmp_path / "q2", spec())
        QueueWorker(
            queue2, executor=executor_for(tmp_path / "store"),
            owner="alone", ttl=TTL, max_jobs=1,
        ).run()
        assert all(b["owner"] != "alone" for b in queue2.heartbeats())

    def test_max_jobs_counts_failed_attempts(self, tmp_path):
        """A bounded session must not spend extra executions on a
        poison job beyond its budget."""
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=5)
        exploding = _ExplodingExecutor(
            workers=1, store=ResultStore(tmp_path / "store")
        )
        report = QueueWorker(
            queue, executor=exploding, owner="budget", ttl=TTL,
            max_jobs=2,
        ).run()
        assert report.processed + report.failed == 2

class TestHeartbeatLoss:
    """The _Heartbeater gives up after its failure budget, visibly."""

    def test_transient_misses_recover_and_reset(self, tmp_path):
        from repro.scheduler.worker import _Heartbeater

        queue = WorkQueue.init(tmp_path / "q", spec())
        beater = _Heartbeater(queue, "hb", ttl=0.03)
        fails = {"left": 2}
        real = queue.heartbeat

        def flaky(owner, ttl, now=None):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise OSError("transient")
            real(owner, ttl, now)

        queue.heartbeat = flaky
        beater.start()
        deadline = time.time() + 10.0
        while fails["left"] > 0 and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # one successful renewal after the faults
        beater.stop()
        beater.join(timeout=10.0)
        assert beater.consecutive_misses == 0  # reset on success
        assert any(b["owner"] == "hb" for b in queue.heartbeats())

    def test_budget_exhaustion_invokes_on_failure_once(
        self, tmp_path, monkeypatch
    ):
        from repro.scheduler.worker import _Heartbeater

        queue = WorkQueue.init(tmp_path / "q", spec())

        def always_fails(owner, ttl, now=None):
            raise OSError("dead mount")

        queue.heartbeat = always_fails
        lost = []
        beater = _Heartbeater(
            queue, "hb", ttl=0.03, on_failure=lambda: lost.append(1)
        )
        # Each miss is a whole retry_io budget; skip its real backoff
        # through the sleep injection point.
        monkeypatch.setattr(
            "repro.scheduler.worker.retry_io",
            functools.partial(retry_io, sleep=lambda _seconds: None),
        )
        beater.start()
        beater.join(timeout=60.0)
        assert not beater.is_alive()  # gave up on its own
        assert lost == [1]
        assert (
            beater.consecutive_misses == beater.MAX_CONSECUTIVE_MISSES
        )

    def test_heartbeat_lost_stamps_counters_and_stops(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        worker = QueueWorker(
            queue,
            executor=executor_for(tmp_path / "store"),
            owner="zombie",
            ttl=TTL,
        )
        worker._last_counters = {"processed": 3}
        worker._heartbeat_lost()
        assert worker._stop_requested
        snapshot = queue.worker_counters()["zombie"]
        assert snapshot["heartbeat_lost"] is True
        assert snapshot["processed"] == 3
