"""Tests for ``repro queue fsck``: detection and protocol-safe repair."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore
from repro.scheduler.fsck import fsck_queue
from repro.scheduler.queue import WorkQueue
from repro.scheduler.worker import QueueWorker
from repro.simulation.config import tiny_config
from repro.simulation.engine import run_simulation
from repro.sweeps.spec import SweepSpec

TTL = 30.0
FUTURE = 1e18  # any heartbeat written now is expired against this


def spec() -> SweepSpec:
    return SweepSpec(
        name="unit",
        scenarios=("captive_fixed_80",),
        methods=("sqlb", "capacity"),
        seeds=(1, 2),
        scale="tiny",
    )


def make_queue(tmp_path) -> WorkQueue:
    return WorkQueue.init(tmp_path / "queue", spec())


def kinds(report) -> list[str]:
    return sorted(v.kind for v in report.violations)


class TestCleanQueue:
    def test_fresh_queue_is_clean(self, tmp_path):
        report = fsck_queue(make_queue(tmp_path))
        assert report.clean
        assert report.checked["pending"] == 4
        assert report.payload()["clean"] is True

    def test_actively_claimed_queue_is_clean(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.claim("live-worker", ttl=TTL) is not None
        # The worker's heartbeat covers its lease: not a violation.
        assert fsck_queue(queue).clean

    def test_fresh_temp_files_are_not_violations(self, tmp_path):
        # Chaos-injected crashes litter dot-prefixed temps; an fsck
        # pass right after a soak must not flag a live writer's (or a
        # freshly crashed one's) stage files.
        queue = make_queue(tmp_path)
        (queue.pending_dir / ".ticket.stage123").write_bytes(b"partial")
        assert fsck_queue(queue).clean

    def test_aged_temp_files_are_pruned(self, tmp_path):
        queue = make_queue(tmp_path)
        litter = queue.pending_dir / ".ticket.stage123"
        litter.write_bytes(b"partial")
        # Litter ages are judged against the filesystem clock, so the
        # file itself must be old, whatever ``now`` says.
        old = time.time() - 10_000.0
        os.utime(litter, (old, old))
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["stale-temp"]
        assert not litter.exists()


class TestLeaseInvariants:
    def test_uncovered_lease_is_requeued(self, tmp_path):
        queue = make_queue(tmp_path)
        lease = queue.claim("doomed", ttl=TTL)
        (queue.heartbeats_dir / "doomed.json").unlink()
        report = fsck_queue(queue)
        assert kinds(report) == ["uncovered-lease"]
        assert not report.violations[0].repaired
        repaired = fsck_queue(queue, repair=True)
        assert repaired.violations[0].repaired
        assert (queue.pending_dir / lease.job.id).exists()
        assert fsck_queue(queue).clean

    def test_lease_with_an_empty_owner_is_uncovered(self, tmp_path):
        # ``leases/<id>@`` names no heartbeat: fsck judges it as
        # requeue_expired does, where it used to die sanitising "".
        queue = make_queue(tmp_path)
        lease = queue.claim("w", ttl=TTL)
        ownerless = lease.path.with_name(f"{lease.job.id}@")
        lease.path.rename(ownerless)
        report = fsck_queue(queue)
        assert kinds(report) == ["uncovered-lease"]
        assert not report.violations[0].repaired
        repaired = fsck_queue(queue, repair=True)
        assert repaired.violations[0].repaired
        assert not ownerless.exists()
        assert (queue.pending_dir / lease.job.id).exists()
        assert fsck_queue(queue).clean

    def test_expired_heartbeat_counts_as_uncovered(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.claim("slow", ttl=TTL)
        report = fsck_queue(queue, now=FUTURE, temp_age=1e19)
        assert "uncovered-lease" in kinds(report)

    def test_requeue_respects_attempts_budget(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "queue", spec(), max_attempts=1)
        lease = queue.claim("crashy", ttl=TTL)
        (queue.heartbeats_dir / "crashy.json").unlink()
        report = fsck_queue(queue, repair=True)
        assert report.violations[0].repaired
        record = json.loads(
            (queue.done_dir / f"{lease.job.id}.json").read_text()
        )
        assert record["state"] == "error"

    def test_done_wins_over_lease(self, tmp_path):
        queue = make_queue(tmp_path)
        lease = queue.claim("acker", ttl=TTL)
        queue.ack(lease, "simulated")
        # Resurrect the lease file: the crash-between-done-and-unlink
        # footprint.
        lease.path.write_text(json.dumps({"attempts": 1}))
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["done-wins-lease"]
        assert not lease.path.exists()
        # The done record survived untouched.
        assert (queue.done_dir / f"{lease.job.id}.json").exists()

    def test_pending_and_leased_discards_the_ticket(self, tmp_path):
        queue = make_queue(tmp_path)
        lease = queue.claim("holder", ttl=TTL)
        phantom = queue.pending_dir / lease.job.id
        phantom.write_text(json.dumps({"attempts": 0}))
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["pending-and-leased"]
        assert not phantom.exists()
        assert lease.path.exists()


class TestTornRecords:
    def test_orphan_ticket_is_discarded(self, tmp_path):
        queue = make_queue(tmp_path)
        stray = queue.pending_dir / "not--a--job"
        stray.write_text(json.dumps({"attempts": 0}))
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["orphan-ticket"]
        assert not stray.exists()

    def test_orphan_lease_is_discarded(self, tmp_path):
        queue = make_queue(tmp_path)
        stray = queue.leases_dir / "not--a--job@ghost"
        stray.write_text(json.dumps({"attempts": 1}))
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["orphan-lease"]
        assert not stray.exists()

    def test_torn_ticket_is_rewritten(self, tmp_path):
        queue = make_queue(tmp_path)
        ticket = next(iter(queue.pending_dir.iterdir()))
        ticket.write_text("{torn json")
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["torn-ticket"]
        assert json.loads(ticket.read_text()) == {"attempts": 0}

    def test_bad_attempts_counter_is_reset(self, tmp_path):
        queue = make_queue(tmp_path)
        ticket = next(iter(queue.pending_dir.iterdir()))
        ticket.write_text(json.dumps({"attempts": -7}))
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["bad-attempts"]
        assert json.loads(ticket.read_text()) == {"attempts": 0}

    def test_torn_job_record_is_parked(self, tmp_path):
        queue = make_queue(tmp_path)
        ticket = next(iter(queue.pending_dir.iterdir()))
        identifier = ticket.name
        (queue.jobs_dir / f"{identifier}.json").write_text("{torn")
        report = fsck_queue(queue, repair=True)
        assert "torn-job-record" in kinds(report)
        assert not ticket.exists()
        record = json.loads(
            (queue.done_dir / f"{identifier}.json").read_text()
        )
        assert record["state"] == "error"

    def test_torn_done_record_is_reticketed(self, tmp_path):
        queue = make_queue(tmp_path)
        lease = queue.claim("w", ttl=TTL)
        queue.ack(lease, "simulated")
        done = queue.done_dir / f"{lease.job.id}.json"
        done.write_text("{torn")
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["torn-done-record"]
        assert not done.exists()
        # The at-least-once contract makes the re-run safe (and the
        # store makes it a hit).
        assert (queue.pending_dir / lease.job.id).exists()

    def test_torn_heartbeat_is_pruned(self, tmp_path):
        queue = make_queue(tmp_path)
        beat = queue.heartbeats_dir / "ghost.json"
        beat.write_text("{torn")
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["torn-heartbeat"]
        assert not beat.exists()

    def test_stranded_job_is_reticketed(self, tmp_path):
        queue = make_queue(tmp_path)
        ticket = next(iter(queue.pending_dir.iterdir()))
        identifier = ticket.name
        ticket.unlink()  # the crash-between-enqueue-writes footprint
        report = fsck_queue(queue, repair=True)
        assert kinds(report) == ["stranded-job"]
        assert (queue.pending_dir / identifier).exists()


class TestStoreChecks:
    def test_store_orphans_are_reported_and_pruned(self, tmp_path):
        queue = make_queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        store.root.mkdir()
        payload = store.root / ("a" * 8 + ".npz")
        payload.write_bytes(b"xx")
        # Aged past the litter rule's gate: a crashed put, not a live one.
        old = time.time() - 10_000.0
        os.utime(payload, (old, old))
        (store.root / ("b" * 8 + ".json")).write_text("{}")
        report = fsck_queue(queue, store=store)
        assert kinds(report) == ["store-orphan-json", "store-orphan-npz"]
        fsck_queue(queue, store=store, repair=True)
        assert fsck_queue(queue, store=store).clean

    def test_fresh_orphan_payload_is_a_live_put(self, tmp_path):
        # The state between a put's two writes: fsck must neither
        # report nor delete the payload, or the entry is lost once
        # the commit marker lands.
        queue = make_queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        config = tiny_config(duration=40.0)
        key = store.put(run_simulation(config, "sqlb", seed=3))
        marker = store.root / f"{key}.json"
        committed = marker.read_bytes()
        marker.unlink()
        report = fsck_queue(queue, store=store, repair=True)
        assert report.clean
        assert (store.root / f"{key}.npz").exists()
        marker.write_bytes(committed)  # the put's second write lands
        assert store.get(config, "sqlb", 3) is not None
        assert store.verify().clean

    def test_unreadable_store_entry_is_flagged(self, tmp_path):
        queue = make_queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        store.root.mkdir()
        (store.root / "deadbeef.npz").write_bytes(b"not-a-zip")
        (store.root / "deadbeef.json").write_text("{}")
        report = fsck_queue(queue, store=store)
        assert kinds(report) == ["store-unreadable"]

    def test_zero_byte_store_payload_is_repaired(self, tmp_path):
        # A power loss after the rename, without durable writes.
        queue = make_queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        key = store.put(
            run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)
        )
        (store.root / f"{key}.npz").write_bytes(b"")
        assert kinds(fsck_queue(queue, store=store)) == ["store-unreadable"]
        report = fsck_queue(queue, store=store, repair=True)
        assert not report.unrepaired
        assert fsck_queue(queue, store=store).clean

    @pytest.mark.parametrize("repair", [False, True])
    def test_aged_orphan_payload_is_reported_once(self, tmp_path, repair):
        # An aged payload without its metadata is both crash litter and
        # a store orphan; it must be one finding, of one kind, whether
        # or not fsck repairs it.
        queue = make_queue(tmp_path)
        store = ResultStore(tmp_path / "store")
        key = store.put(
            run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)
        )
        (store.root / f"{key}.json").unlink()
        payload = store.root / f"{key}.npz"
        old = time.time() - 10_000.0
        os.utime(payload, (old, old))
        report = fsck_queue(queue, store=store, temp_age=3600, repair=repair)
        assert [(v.kind, v.subject) for v in report.violations] == [
            ("store-orphan-npz", key)
        ]
        assert report.violations[0].repaired is repair
        assert payload.exists() is not repair


class TestRepairedQueueDrains:
    def test_chaotic_state_repairs_to_a_drainable_queue(self, tmp_path):
        # Compose several violations at once, repair, then actually
        # drain the queue and check every cell completed exactly once.
        queue = make_queue(tmp_path)
        lease = queue.claim("dead", ttl=TTL)
        (queue.heartbeats_dir / "dead.json").unlink()  # uncovered
        tickets = sorted(queue.pending_dir.iterdir())
        tickets[0].write_text("{torn")  # torn ticket
        tickets[1].unlink()  # stranded job
        (queue.heartbeats_dir / "ghost.json").write_text("{torn")

        report = fsck_queue(queue, repair=True)
        assert not report.clean
        assert not report.unrepaired
        assert fsck_queue(queue).clean

        store = ResultStore(tmp_path / "store")
        executor = ExperimentExecutor(workers=1, store=store)
        worker = QueueWorker(
            queue, executor=executor, owner="drainer", ttl=TTL
        )
        worker_report = worker.run()
        counts = queue.counts()
        assert counts.drained
        assert counts.done == 4
        assert worker_report.processed == 4
        assert store.verify().clean
        # lease.job was requeued, re-run, and stored exactly once.
        assert (queue.done_dir / f"{lease.job.id}.json").exists()


class TestSkewedHost:
    """fsck run from a host whose clock is two hours ahead of the
    filesystem's: liveness follows the queue's recorded clock and
    litter ages follow the filesystem clock, so nothing live moves."""

    def test_repair_keeps_a_live_lease_and_a_fresh_temp(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "queue"
        WorkQueue.init(root, spec(), expiry_clock="mtime")
        lease = WorkQueue(root).claim("live-worker", ttl=TTL)
        temp = root / "pending" / ".ticket.stage123"
        temp.write_bytes(b"partial")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        report = fsck_queue(WorkQueue(root), repair=True)
        assert report.clean, report.payload()
        assert lease.path.exists()
        assert temp.exists()
        ticket = json.loads(lease.path.read_text())
        assert ticket["attempts"] == 0  # no attempt spent


class TestReportShape:
    def test_payload_round_trips_to_json(self, tmp_path):
        queue = make_queue(tmp_path)
        next(iter(queue.pending_dir.iterdir())).write_text("{torn")
        report = fsck_queue(queue)
        payload = json.loads(json.dumps(report.payload()))
        assert payload["unrepaired"] == 1
        assert payload["violations"][0]["kind"] == "torn-ticket"
        assert payload["violations"][0]["repaired"] is False

    def test_unrepaired_listed_without_repair_flag(self, tmp_path):
        queue = make_queue(tmp_path)
        next(iter(queue.pending_dir.iterdir())).unlink()
        report = fsck_queue(queue, repair=False)
        assert len(report.unrepaired) == 1
        # And the stranded job was NOT touched.
        assert len(list(queue.pending_dir.iterdir())) == 3
