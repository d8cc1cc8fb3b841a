"""Tests for the durable work queue: leasing, expiry, requeue."""

from __future__ import annotations

import json

import pytest

from repro.scheduler.queue import QueueCounts, WorkQueue, job_id
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


@pytest.fixture
def queue(tmp_path) -> WorkQueue:
    return WorkQueue.init(tmp_path / "q", spec())


def rewrite_queue_json(root, **changes) -> None:
    """Edit ``queue.json`` in place (``None`` deletes a key)."""
    queue_file = root / "queue.json"
    payload = json.loads(queue_file.read_text())
    for key, value in changes.items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    queue_file.write_text(json.dumps(payload))


class TestInit:
    def test_layout_and_full_grid(self, queue):
        counts = queue.counts()
        assert counts == QueueCounts(jobs=4, pending=4, leased=0, done=0)
        assert not counts.drained
        assert queue.name == "unit"
        assert queue.spec == spec()
        assert queue.spec_hash == spec().spec_hash()
        jobs = queue.jobs()
        assert len(jobs) == 4
        assert {(j.scenario, j.method, j.seed) for j in jobs} == {
            ("captive_fixed_80", m, s)
            for m in ("sqlb", "capacity")
            for s in (1, 2)
        }
        for job in jobs:
            assert len(job.key) == 64  # a real store cache key

    def test_double_init_refuses(self, queue):
        with pytest.raises(FileExistsError, match="already initialised"):
            WorkQueue.init(queue.root, spec())

    def test_open_missing_queue(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="queue init"):
            WorkQueue(tmp_path / "nowhere")

    def test_open_future_format(self, tmp_path):
        root = tmp_path / "future"
        WorkQueue.init(root, spec())
        queue_file = root / "queue.json"
        payload = json.loads(queue_file.read_text())
        payload["format"] = 99
        queue_file.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format"):
            WorkQueue(root)

    def test_job_ids_are_deterministic_and_safe(self):
        assert job_id("captive_fixed_80", "sqlb", 7) == (
            "captive_fixed_80--sqlb--s7"
        )
        assert job_id("a b/c", "m", 1) == "a-b-c--m--s1"


class TestClaim:
    def test_exactly_one_winner_per_ticket(self, queue):
        seen: set[str] = set()
        for owner in ("alpha", "beta", "gamma", "delta", "epsilon"):
            lease = queue.claim(owner, TTL)
            if lease is None:
                continue
            assert lease.job.id not in seen
            seen.add(lease.job.id)
        assert len(seen) == 4  # five claimants, four tickets
        assert queue.claim("late", TTL) is None
        assert queue.counts().leased == 4

    def test_claim_publishes_heartbeat_first(self, queue):
        queue.claim("worker-1", TTL)
        beats = queue.heartbeats()
        assert [b["owner"] for b in beats] == ["worker-1"]
        # A fresh claim is never scavengeable.
        assert queue.requeue_expired() == []

    def test_ack_records_completion_and_releases(self, queue):
        lease = queue.claim("worker-1", TTL)
        queue.ack(lease, "simulated", duration_s=1.5)
        counts = queue.counts()
        assert counts.pending == 3
        assert counts.leased == 0
        assert counts.done == 1
        [record] = [
            r for r in queue.done_records() if r["id"] == lease.job.id
        ]
        assert record["state"] == "simulated"
        assert record["owner"] == "worker-1"
        assert record["duration_s"] == 1.5
        assert record["key"] == lease.job.key


class TestEnqueueDedupe:
    def test_enqueue_skips_known_and_done_jobs(self, queue):
        assert queue.enqueue(spec().expand()) == 0  # all already queued
        lease = queue.claim("w", TTL)
        queue.ack(lease, "simulated")
        # Remove the job record to prove the done record alone blocks it.
        (queue.jobs_dir / f"{lease.job.id}.json").unlink()
        assert queue.enqueue(spec().expand()) == 0


class TestExpiry:
    def test_expired_lease_is_requeued_with_attempt_bump(self, queue):
        lease = queue.claim("doomed", TTL, now=1000.0)
        # TTL passed with no heartbeat renewal: the worker is dead.
        requeued = queue.requeue_expired(now=1000.0 + TTL + 1.0)
        assert requeued == [lease.job.id]
        counts = queue.counts()
        assert counts.pending == 4
        assert counts.leased == 0
        ticket = json.loads(
            (queue.pending_dir / lease.job.id).read_text()
        )
        assert ticket["attempts"] == 1
        # The requeued ticket is claimable again.
        again = queue.claim("survivor", TTL)
        assert again is not None

    def test_live_lease_is_left_alone(self, queue):
        queue.claim("alive", TTL, now=1000.0)
        assert queue.requeue_expired(now=1000.0 + TTL / 2.0) == []
        assert queue.counts().leased == 1

    def test_heartbeat_renewal_extends_the_lease(self, queue):
        queue.claim("renewer", TTL, now=1000.0)
        queue.heartbeat("renewer", TTL, now=1000.0 + TTL)
        assert queue.requeue_expired(now=1000.0 + TTL + 1.0) == []

    def test_missing_heartbeat_counts_as_expired(self, queue):
        lease = queue.claim("ghost", TTL)
        (queue.heartbeats_dir / "ghost.json").unlink()
        assert queue.requeue_expired() == [lease.job.id]

    def test_done_wins_over_a_stale_lease(self, queue):
        """A worker that died between writing done/ and unlinking its
        lease must not get its (finished) job requeued."""
        lease = queue.claim("halfway", TTL, now=1000.0)
        queue.ack(lease, "simulated")
        # Resurrect the lease file as the crash would have left it.
        lease.path.write_text(json.dumps({"attempts": 0}))
        assert queue.requeue_expired(now=1000.0 + TTL + 1.0) == []
        assert not lease.path.exists()
        assert queue.counts().done == 1

    def test_counts_drained(self, queue):
        for _ in range(4):
            queue.ack(queue.claim("w", TTL), "simulated")
        assert queue.counts().drained


class TestReviewHardening:
    def test_claim_ignores_atomic_write_temp_files(self, queue):
        """A dot-prefixed staging file (mid atomic write) must never be
        claimed, scavenged, or counted."""
        (queue.pending_dir / ".captive_fixed_80--sqlb--s9.tmp123").write_text(
            "{}"
        )
        (queue.leases_dir / ".junk@ghost.tmp456").write_text("{}")
        assert queue.counts().pending == 4
        assert queue.counts().leased == 0
        assert queue.requeue_expired() == []
        claimed = set()
        while (lease := queue.claim("w", TTL)) is not None:
            claimed.add(lease.job.id)
        assert len(claimed) == 4  # the temp ticket was never claimable
        assert queue.lease_owners() == {"w": 4}

    def test_unready_queue_is_refused(self, tmp_path):
        """A crash mid-init leaves ready=false; workers must refuse."""
        import json as jsonlib

        root = tmp_path / "torn"
        WorkQueue.init(root, spec())
        payload = jsonlib.loads((root / "queue.json").read_text())
        payload["ready"] = False
        (root / "queue.json").write_text(jsonlib.dumps(payload))
        with pytest.raises(ValueError, match="never fully initialised"):
            WorkQueue(root)

    def test_heartbeat_records_the_sanitised_owner(self, queue):
        queue.heartbeat("host.with/slash", TTL)
        [beat] = queue.heartbeats()
        assert beat["owner"] == "host.with-slash"

    def test_fail_requeues_then_parks_after_budget(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=2)
        lease = queue.claim("w", TTL)
        assert queue.fail(lease, "step 1") == "requeued"
        assert (queue.pending_dir / lease.job.id).exists()
        again = None
        while (candidate := queue.claim("w", TTL)) is not None:
            if candidate.job.id == lease.job.id:
                again = candidate
                break
        assert again is not None
        assert queue.fail(again, "step 2") == "error"
        [record] = [
            r for r in queue.done_records() if r["id"] == lease.job.id
        ]
        assert record["state"] == "error"
        assert record["error"] == "step 2"

    def test_claim_retries_unreadable_job_records(self, tmp_path):
        """A ticket whose job record is unreadable is requeued within
        the attempts budget, then parked as an error."""
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=2)
        victim = queue.jobs()[0]
        (queue.jobs_dir / f"{victim.id}.json").write_text("{not json")
        for _ in range(6):  # enough passes to exhaust the budget
            while queue.claim("w", TTL) is not None:
                pass
            # Release the good leases so the next pass can reclaim.
            for lease_path in list(queue.leases_dir.iterdir()):
                if not lease_path.name.startswith("."):
                    identifier = lease_path.name.partition("@")[0]
                    lease_path.rename(queue.pending_dir / identifier)
        [record] = [
            r for r in queue.done_records() if r["id"] == victim.id
        ]
        assert record["state"] == "error"
        assert "unreadable" in record["error"]

    def test_expiry_consumes_the_attempts_budget(self, tmp_path):
        """A job that keeps killing its worker (lease expires, never
        fails in-process) parks as an error after max_attempts."""
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=2)
        lease = queue.claim("dying", TTL, now=1000.0)
        assert queue.requeue_expired(now=2000.0) == [lease.job.id]
        again = queue.claim("dying", TTL, now=3000.0)
        # Make the reclaimed job the expired one deterministically.
        while again is not None and again.job.id != lease.job.id:
            queue.ack(again, "simulated")
            again = queue.claim("dying", TTL, now=3000.0)
        assert again is not None
        (queue.heartbeats_dir / "dying.json").unlink()
        assert queue.requeue_expired(now=4000.0) == []
        [record] = [
            r for r in queue.done_records() if r["id"] == lease.job.id
        ]
        assert record["state"] == "error"
        assert record["attempts"] == 2
        assert "presumed dead" in record["error"]

    def test_fail_on_a_scavenged_lease_is_a_noop(self, queue):
        """fail() after the scavenger already requeued the lease must
        not recreate it or reset the attempts counter."""
        lease = queue.claim("slow", TTL, now=1000.0)
        assert queue.requeue_expired(now=2000.0) == [lease.job.id]
        pending_before = {p.name for p in queue.pending_dir.iterdir()}
        assert queue.fail(lease, "late failure") == "gone"
        assert {p.name for p in queue.pending_dir.iterdir()} == (
            pending_before
        )
        assert queue.counts().leased == 0
        ticket = json.loads(
            (queue.pending_dir / lease.job.id).read_text()
        )
        assert ticket["attempts"] == 1  # not reset

    def test_ack_overwrites_an_expiry_error_record(self, tmp_path):
        """A presumed-dead worker that actually finishes wins: its ack
        replaces the scavenger's error verdict."""
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=1)
        lease = queue.claim("zombie", TTL, now=1000.0)
        queue.requeue_expired(now=2000.0)  # parks error
        [record] = queue.done_records()
        assert record["state"] == "error"
        queue.ack(lease, "simulated", duration_s=9.0)
        [record] = [
            r for r in queue.done_records() if r["id"] == lease.job.id
        ]
        assert record["state"] == "simulated"

    def test_retire_removes_the_heartbeat(self, queue):
        queue.heartbeat("leaver", TTL)
        queue.retire("leaver")
        assert queue.heartbeats() == []

    def test_error_park_never_clobbers_a_real_result(self, tmp_path):
        """A scavenger's error verdict racing a real ack must lose:
        the completion record stays intact."""
        queue = WorkQueue.init(tmp_path / "q", spec(), max_attempts=1)
        lease = queue.claim("racer", TTL, now=1000.0)
        queue.ack(lease, "simulated", duration_s=1.0)
        # Resurrect the lease as the race would leave it (the parker
        # read the ticket before ack unlinked the file).
        lease.path.write_text(json.dumps({"attempts": 5}))
        assert queue.fail(lease, "late verdict") == "gone"
        [record] = [
            r for r in queue.done_records() if r["id"] == lease.job.id
        ]
        assert record["state"] == "simulated"
        assert not lease.path.exists()

    def test_enqueue_repairs_a_missing_ticket(self, queue):
        """Crash between job-record and ticket writes: the next replica
        enqueue recreates the ticket instead of skipping the job."""
        victim = queue.jobs()[0]
        (queue.pending_dir / victim.id).unlink()
        assert queue.counts().pending == 3
        assert queue.enqueue(spec().expand()) == 1
        assert queue.counts().pending == 4
        assert (queue.pending_dir / victim.id).exists()


class TestClockThreading:
    """A queue initialised with ``--expiry-clock mtime`` must never
    silently fall back to the local wall clock (the bug this class
    pins), and every handle reads the clock and the attempts budget
    from ``queue.json``."""

    def test_settings_are_recorded_once_in_queue_json(self, tmp_path):
        root = tmp_path / "q"
        WorkQueue.init(root, spec(), expiry_clock="mtime", max_attempts=5)
        payload = json.loads((root / "queue.json").read_text())
        assert (payload["expiry_clock"], payload["max_attempts"]) == (
            "mtime",
            5,
        )
        reopened = WorkQueue(root)
        assert (reopened.clock, reopened.max_attempts) == ("mtime", 5)

    def test_queue_json_without_settings_reads_as_defaults(self, tmp_path):
        """A queue initialised before the two settings were recorded
        opens as wall/3, as every flagless process judged it, and a
        worker drains it."""
        from repro.experiments.executor import ExperimentExecutor
        from repro.experiments.store import ResultStore
        from repro.scheduler.worker import QueueWorker

        root = tmp_path / "q"
        one_cell = SweepSpec(
            name="legacy",
            scenarios=("captive_fixed_80",),
            methods=("sqlb",),
            seeds=(1,),
            scale="tiny",
        )
        WorkQueue.init(root, one_cell, expiry_clock="mtime", max_attempts=7)
        rewrite_queue_json(root, expiry_clock=None, max_attempts=None)
        legacy = WorkQueue(root)
        assert (legacy.clock, legacy.max_attempts) == ("wall", 3)
        executor = ExperimentExecutor(
            workers=1, store=ResultStore(tmp_path / "store")
        )
        report = QueueWorker(legacy, executor=executor, owner="old").run()
        assert report.processed == 1
        assert legacy.counts().drained

    def test_unknown_clock_refused_at_open(self, queue):
        rewrite_queue_json(queue.root, expiry_clock="sundial")
        with pytest.raises(ValueError, match="expiry clock 'sundial'"):
            WorkQueue(queue.root)

    @pytest.mark.parametrize("budget", [0, -1, "3", 2.5, True])
    def test_bad_attempts_budget_refused_at_open(self, queue, budget):
        rewrite_queue_json(queue.root, max_attempts=budget)
        with pytest.raises(ValueError, match=f"max_attempts {budget!r}"):
            WorkQueue(queue.root)

    @pytest.mark.parametrize(
        "settings", [{"expiry_clock": "sundial"}, {"max_attempts": 0}]
    )
    def test_init_refuses_bad_settings_before_writing(
        self, tmp_path, settings
    ):
        root = tmp_path / "q"
        with pytest.raises(ValueError, match=repr(*settings.values())):
            WorkQueue.init(root, spec(), **settings)
        assert not root.exists()

    def test_now_follows_the_handle_clock(self, queue, tmp_path):
        import time

        assert abs(queue.now() - time.time()) < 1.0
        mtime_queue = WorkQueue.init(
            tmp_path / "mtime", spec(), expiry_clock="mtime"
        )
        # The filesystem probe returns a real timestamp (tmpfs and
        # local disks track wall time closely; equality is not the
        # contract, finiteness and same-era is).
        assert abs(mtime_queue.now() - time.time()) < 300.0

    def test_heartbeat_deadline_missing_owner(self, queue):
        assert queue.heartbeat_deadline("nobody") == float("-inf")

    def test_heartbeat_deadline_wall(self, queue):
        queue.heartbeat("w", TTL, now=1000.0)
        assert queue.heartbeat_deadline("w") == 1000.0 + TTL

    def test_mtime_queue_ignores_recorded_wall_deadlines(
        self, queue, tmp_path
    ):
        """Regression: an mtime queue judges liveness by the heartbeat
        *file's* freshness, so a worker whose recorded wall deadline is
        ancient (clock skew) is still alive — and the same lease on a
        wall-clock queue is scavenged."""
        import time

        mtime_queue = WorkQueue.init(
            tmp_path / "mtime", spec(), expiry_clock="mtime"
        )
        leases = {
            clock: handle.claim("skewed", TTL, now=0.0)  # deadline = TTL
            for clock, handle in (("wall", queue), ("mtime", mtime_queue))
        }
        assert None not in leases.values()
        # The file was touched moments ago.
        assert mtime_queue.requeue_expired() == []
        assert mtime_queue.heartbeat_deadline("skewed") > time.time() - 60.0
        # The recorded deadline says long-expired under the wall clock.
        assert queue.requeue_expired() == [leases["wall"].job.id]


class TestFreshQueueMaintenance:
    """gc --prune and retry on an initialised-never-drained queue must
    be clean no-ops: no pruned tickets, no requeues, exit clean."""

    def test_gc_prune_is_a_noop(self, queue):
        report = queue.gc(prune=True)
        assert report.temp_files == ()
        assert report.stale_heartbeats == ()
        assert report.stranded_jobs == ()
        assert queue.counts() == QueueCounts(
            jobs=4, pending=4, leased=0, done=0
        )

    def test_retry_is_a_noop(self, queue):
        report = queue.retry_errors()
        assert report.requeued == ()
        assert report.reticketed == ()
        assert report.skipped == ()
        assert queue.counts().pending == 4

    def test_pending_tickets_are_not_stranded(self, queue):
        assert queue.stranded_jobs() == []
