"""Tests for queue maintenance: retry, gc, and mtime-clock expiry."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.scheduler.queue import WorkQueue
from repro.sweeps.spec import SweepSpec

TTL = 30.0


def spec() -> SweepSpec:
    return SweepSpec(
        name="maintenance-unit",
        scenarios=("captive_fixed_80",),
        methods=("sqlb", "capacity"),
        seeds=(1, 2),
        scale="tiny",
    )


@pytest.fixture
def queue(tmp_path) -> WorkQueue:
    return WorkQueue.init(tmp_path / "q", spec())


def park_one_error(queue: WorkQueue) -> str:
    """Claim a job and fail it past its budget; returns its id."""
    lease = queue.claim("worker-a", TTL)
    outcome = queue.fail(lease, "engine exploded")
    assert outcome == "error"
    return lease.job.id


class TestRetry:
    @pytest.fixture
    def queue(self, tmp_path) -> WorkQueue:
        # One failure spends the whole budget: park_one_error parks.
        return WorkQueue.init(tmp_path / "q", spec(), max_attempts=1)

    def test_retry_requeues_with_fresh_attempts(self, queue):
        identifier = park_one_error(queue)
        assert queue.error_records()[0]["id"] == identifier
        report = queue.retry_errors()
        assert report.requeued == (identifier,)
        assert report.skipped == ()
        # Error record gone, ticket back with a zeroed budget.
        assert not (queue.done_dir / f"{identifier}.json").exists()
        ticket = json.loads(
            (queue.pending_dir / identifier).read_text()
        )
        assert ticket == {"attempts": 0}
        # The job is claimable and completable again.
        lease = queue.claim("worker-b", TTL)
        assert lease.job.id == identifier
        queue.ack(lease, "simulated", duration_s=0.1)
        assert queue.done_records()[0]["state"] == "simulated"

    def test_retry_is_selective_by_id(self, queue):
        first = park_one_error(queue)
        second = park_one_error(queue)
        assert first != second
        report = queue.retry_errors(ids=[first])
        assert report.requeued == (first,)
        assert (queue.done_dir / f"{second}.json").exists()

    def test_retry_skips_non_error_records(self, queue):
        lease = queue.claim("worker-a", TTL)
        queue.ack(lease, "simulated", duration_s=0.1)
        report = queue.retry_errors(ids=[lease.job.id])
        assert report.requeued == ()
        assert report.skipped == (
            (lease.job.id, "done record is not an error park"),
        )

    def test_retry_unknown_id_is_reported(self, queue):
        report = queue.retry_errors(ids=["not--a--job"])
        assert report.skipped == (("not--a--job", "no error record"),)

    def test_retry_repairs_stranded_jobs(self, queue):
        # Forge the crash footprint: a ticket vanishes with no lease
        # or done record (enqueue died between its two writes).
        ticket = queue.pending_dir / os.listdir(queue.pending_dir)[0]
        identifier = ticket.name
        ticket.unlink()
        assert queue.stranded_jobs() == [identifier]
        report = queue.retry_errors()
        assert report.reticketed == (identifier,)
        assert (queue.pending_dir / identifier).exists()
        assert queue.stranded_jobs() == []


class TestGc:
    def test_clean_queue_reports_clean(self, queue):
        report = queue.gc()
        assert report.clean
        assert not report.pruned

    def test_old_temp_files_are_found_and_pruned(self, queue, tmp_path):
        stale = queue.pending_dir / ".ticket.stale123"
        stale.write_text("{}")
        old = time.time() - 7200.0
        os.utime(stale, (old, old))
        fresh = queue.done_dir / ".fresh.tmp"
        fresh.write_text("{}")  # younger than temp_age: left alone

        extra_root = tmp_path / "store"
        extra_root.mkdir()
        store_temp = extra_root / ".entry.npz.partial"
        store_temp.write_text("x")
        os.utime(store_temp, (old, old))

        report = queue.gc(extra_roots=(extra_root,))
        assert set(report.temp_files) == {stale, store_temp}
        assert stale.exists()  # listing does not remove

        pruned = queue.gc(prune=True, extra_roots=(extra_root,))
        assert pruned.pruned
        assert not stale.exists()
        assert not store_temp.exists()
        assert fresh.exists()

    def test_temp_scan_never_touches_live_records(self, queue):
        report = queue.gc(prune=True, temp_age=0.0)
        assert report.temp_files == ()
        counts = queue.counts()
        assert counts.pending == 4  # full grid intact

    def test_stale_heartbeats_are_swept_only_without_leases(self, queue):
        now = time.time()
        queue.heartbeat("dead-owner", ttl=1.0)
        queue.heartbeat("leaseholder", ttl=1.0)
        lease = queue.claim("leaseholder", TTL)
        assert lease is not None
        queue.heartbeat("leaseholder", ttl=1.0)
        # Staleness is judged by file mtime (the file server's stamp),
        # not recorded deadlines: age both files two hours.
        old = now - 7200.0
        for owner in ("dead-owner", "leaseholder"):
            path = queue.heartbeats_dir / f"{owner}.json"
            os.utime(path, (old, old))
        report = queue.gc(prune=True, now=now)
        assert report.stale_heartbeats == ("dead-owner",)
        assert not (
            queue.heartbeats_dir / "dead-owner.json"
        ).exists()
        assert (queue.heartbeats_dir / "leaseholder.json").exists()


def skew_heartbeat(queue: WorkQueue, owner: str):
    """Claim a lease whose owner's clock runs a day fast: a wall
    deadline far in the future, but a heartbeat *file* last touched
    three TTLs ago."""
    lease = queue.claim(owner, TTL)
    assert lease is not None
    heartbeat_path = queue.heartbeats_dir / f"{owner}.json"
    payload = json.loads(heartbeat_path.read_text())
    payload["deadline"] = time.time() + 86400.0
    heartbeat_path.write_text(json.dumps(payload))
    old = time.time() - 3.0 * TTL
    os.utime(heartbeat_path, (old, old))
    return lease


class TestMtimeExpiry:
    @pytest.fixture
    def queue(self, tmp_path) -> WorkQueue:
        return WorkQueue.init(tmp_path / "q", spec(), expiry_clock="mtime")

    def test_filesystem_now_tracks_the_clock(self, queue):
        probed = queue.filesystem_now()
        assert abs(probed - time.time()) < 60.0
        # The probe must not leave litter a queue scan could trip on.
        assert not any(
            p.name.startswith(".clockprobe")
            for p in queue.root.iterdir()
        )

    def test_mtime_clock_ignores_wall_deadlines(self, queue, tmp_path):
        """A skewed writer's bogus absolute deadline must not matter."""
        wall_queue = WorkQueue.init(tmp_path / "wall", spec())
        skew_heartbeat(wall_queue, "skewed")
        lease = skew_heartbeat(queue, "skewed")

        assert wall_queue.requeue_expired() == []
        requeued = queue.requeue_expired()
        assert requeued == [lease.job.id]

    def test_mtime_clock_keeps_live_leases(self, queue):
        lease = queue.claim("live-owner", TTL)
        assert lease is not None
        # Freshly written heartbeat: mtime + ttl is comfortably ahead.
        assert queue.requeue_expired() == []
        assert lease.path.exists()

    def test_unknown_clock_is_refused(self, queue):
        """Every command opens the queue through one check: a recorded
        clock it does not know is a clean CLI error, not a fallback."""
        from repro.cli import main

        queue_file = queue.root / "queue.json"
        payload = json.loads(queue_file.read_text())
        payload["expiry_clock"] = "sundial"
        queue_file.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="unknown expiry clock"):
            main(["queue", "status", "--queue-dir", str(queue.root)])

    def test_missing_heartbeat_expires_under_either_clock(
        self, queue, tmp_path
    ):
        wall_queue = WorkQueue.init(tmp_path / "wall", spec())
        for handle in (queue, wall_queue):
            lease = handle.claim("ghost", TTL)
            assert lease is not None
            handle.retire("ghost")
            assert handle.requeue_expired() == [lease.job.id]


class TestReviewRegressions:
    def test_selective_retry_of_a_stranded_id_is_not_double_reported(
        self, queue
    ):
        """A stranded id passed via --ids must be re-ticketed only,
        never also listed as skipped."""
        ticket = queue.pending_dir / os.listdir(queue.pending_dir)[0]
        identifier = ticket.name
        ticket.unlink()
        report = queue.retry_errors(ids=[identifier])
        assert report.reticketed == (identifier,)
        assert report.skipped == ()
        assert report.requeued == ()

    def test_idle_requeue_expired_skips_the_clock_probe(
        self, tmp_path, monkeypatch
    ):
        """With no leases there is nothing to judge, so the mtime
        clock must not touch the filesystem at all."""
        queue = WorkQueue.init(tmp_path / "q", spec(), expiry_clock="mtime")

        def _boom(self):
            raise AssertionError("probed the clock with no leases")

        monkeypatch.setattr(WorkQueue, "filesystem_now", _boom)
        assert queue.requeue_expired() == []
