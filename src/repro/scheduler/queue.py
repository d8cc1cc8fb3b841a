"""Durable, file-backed work queue for sweep jobs.

A queue directory turns a :class:`~repro.sweeps.spec.SweepSpec` into
per-job files that any number of worker daemons — on one machine or on
several sharing the directory over NFS/rsync — drain concurrently with
no coordinator process.  Everything is plain files and two primitives
the platform already makes atomic:

* **atomic write** (tempfile + ``os.replace``) for every record, so a
  crashed writer never leaves a half-written file; and
* **atomic rename** for state transitions, so exactly one worker wins a
  claim race and a loser simply moves on to the next ticket.

Layout under the queue root::

    queue.json            immutable queue description (spec, adaptive,
                          expiry clock, attempts budget)
    jobs/<id>.json        immutable job records (scenario, method, seed)
    pending/<id>          claim tickets; present ⇔ job is up for grabs
    leases/<id>@<owner>   a claimed ticket, renamed here by the winner
    done/<id>.json        completion records written by ``ack``
    heartbeats/<owner>.json   per-worker liveness: an absolute deadline

The lease protocol:

1. ``claim(owner, ttl)`` first writes the owner's heartbeat (deadline =
   now + ttl), *then* renames ``pending/<id>`` →  ``leases/<id>@<owner>``.
   The rename is the commit point: exactly one rename on one source
   succeeds, and because the heartbeat already exists the new lease is
   never observed without a live deadline.
2. Workers renew the heartbeat periodically (one file per owner renews
   every lease that owner holds).
3. ``requeue_expired()`` — run opportunistically by every worker —
   renames leases whose owner's heartbeat deadline has passed (or whose
   heartbeat is missing) back into ``pending/``, bumping the ticket's
   ``attempts`` counter first.  A killed worker therefore loses
   nothing: its leases reappear for the survivors.
4. ``ack(lease, ...)`` writes ``done/<id>.json`` and then unlinks the
   lease.  If a worker dies between those two steps the scavenger sees
   the done record and discards the stale lease instead of requeueing.

Execution is therefore *at least once*: a job can run twice when a
worker is presumed dead but actually finished (or when a requeued
ticket races a slow owner).  That is safe by construction — results go
to the content-addressed :class:`~repro.experiments.store.ResultStore`,
where the second execution is a store hit (or an idempotent overwrite
of identical bytes), never a duplicate.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from pathlib import Path

from repro._io import DEFAULT_TEMP_AGE, crash_litter, filesystem_now
from repro.experiments.store import cache_key
from repro.reliability.durability import atomic_write
from repro.reliability.failpoints import failpoint
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.spec import SweepJob, SweepSpec
from repro.telemetry.registry import get_telemetry
from repro.telemetry.tracing import mint_trace_id

__all__ = [
    "EXPIRY_CLOCKS",
    "GcReport",
    "Lease",
    "QueueCounts",
    "QueueJob",
    "RetryReport",
    "WorkQueue",
    "job_id",
    "sanitize_owner",
]

#: Bump when the on-disk queue layout changes incompatibly.
QUEUE_FORMAT = 1

#: How lease expiry derives "now" and the deadline, recorded in
#: ``queue.json`` at init (default ``wall``).  ``wall`` compares the
#: heartbeat's recorded absolute deadline against the scavenger's wall
#: clock (multi-box queues need NTP).  ``mtime`` is skew-immune: the
#: deadline is the heartbeat *file's* mtime plus the recorded TTL, and
#: "now" is the shared filesystem's own clock
#: (:func:`repro._io.filesystem_now`) — one clock, the file server's,
#: no matter how many boxes share the queue.
EXPIRY_CLOCKS = ("wall", "mtime")

#: How many times a job may be attempted (claims after requeues and
#: failures) before it is parked as a ``done/`` error record instead of
#: being retried — a poison job must not crash-loop the fleet forever.
#: Recorded in ``queue.json`` at init; this is the default.
DEFAULT_MAX_ATTEMPTS = 3

#: Separates the job id from the owner id in lease file names; both
#: sides are sanitised so the partition is unambiguous.
_LEASE_SEPARATOR = "@"

_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._-]+")


def _sanitize(component: str) -> str:
    """A filename- and separator-safe version of an id component."""
    safe = _SAFE_COMPONENT.sub("-", component)
    if not safe:
        raise ValueError(f"unusable id component {component!r}")
    return safe


#: Public alias: callers that record an owner id anywhere (manifests,
#: reports) must store the same sanitised form the queue files use.
sanitize_owner = _sanitize


def _telemetry_note(
    action: str, attrs: dict | None = None, event: bool = True
) -> None:
    """Mirror one queue protocol action into the active telemetry.

    No-op (one function call and a None check) when telemetry is
    disabled.  ``event=False`` counts without recording a structured
    event — heartbeats renew every ttl/3 seconds per worker and would
    drown the event stream.
    """
    telemetry = get_telemetry()
    if telemetry is None:
        return
    telemetry.count(f"queue.{action}")
    if event:
        telemetry.event("queue", action, attrs)


def _live_entries(directory: Path) -> list[Path]:
    """Directory entries that are real queue records.

    ``atomic_write`` stages dot-prefixed temp files in the same
    directory before the ``os.replace``; a concurrent reader must never
    treat one as a ticket/lease (claiming a half-written ticket or
    "scavenging" an attempts-bump temp would corrupt the protocol).
    """
    if not directory.is_dir():
        return []
    return sorted(
        path
        for path in directory.iterdir()
        if not path.name.startswith(".")
    )


def job_id(scenario: str, method: str, seed: int) -> str:
    """Deterministic, filename-safe id of one sweep cell.

    Every controller replica derives the same id for the same cell, so
    concurrent enqueue attempts (two drained workers both extending a
    scenario) deduplicate on the job file instead of double-queueing.
    """
    return f"{_sanitize(scenario)}--{_sanitize(method)}--s{int(seed)}"


@dataclasses.dataclass(frozen=True)
class QueueJob:
    """One immutable queued unit of work.

    ``trace`` is the fleet-wide telemetry correlation id, minted
    deterministically at enqueue time (see
    :meth:`WorkQueue.trace_id`); queues written before tracing carry
    no ``trace`` key and claimers re-derive the identical id.
    """

    id: str
    scenario: str
    method: str
    seed: int
    key: str  # the result-store cache key this job will produce
    trace: str | None = None


@dataclasses.dataclass(frozen=True)
class Lease:
    """A claimed job: proof that ``owner`` won the ticket rename."""

    job: QueueJob
    owner: str
    path: Path


@dataclasses.dataclass(frozen=True)
class RetryReport:
    """What one :meth:`WorkQueue.retry_errors` pass did.

    ``requeued`` are error-parked jobs returned to ``pending/`` with a
    fresh attempts budget; ``reticketed`` are stranded jobs (a job
    record with no ticket, lease, or done record — the footprint of a
    crash between an enqueue's two writes or between a retry's two
    steps) whose tickets were recreated; ``skipped`` are ids that could
    not be retried, with reasons.
    """

    requeued: tuple[str, ...]
    reticketed: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]


@dataclasses.dataclass(frozen=True)
class GcReport:
    """What :meth:`WorkQueue.gc` found (and, with ``prune``, removed).

    ``temp_files`` are aged crash litter (:func:`repro._io.crash_litter`
    — a crashed writer's leftovers, invisible to queue scans but
    disk-visible forever);
    ``stale_heartbeats`` are heartbeats of owners far past their
    deadline holding no leases; ``stranded_jobs`` are job ids with no
    live state (fix with ``retry``, not ``gc``).
    """

    temp_files: tuple[Path, ...]
    stale_heartbeats: tuple[str, ...]
    stranded_jobs: tuple[str, ...]
    pruned: bool

    @property
    def clean(self) -> bool:
        return not (
            self.temp_files or self.stale_heartbeats or self.stranded_jobs
        )


@dataclasses.dataclass(frozen=True)
class QueueCounts:
    """Point-in-time queue depth."""

    jobs: int
    pending: int
    leased: int
    done: int

    @property
    def drained(self) -> bool:
        """No work outstanding (pending and leased both empty)."""
        return self.pending == 0 and self.leased == 0


def _read_json(path: Path) -> dict | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _settings(root: Path, payload: dict) -> tuple[str, int]:
    """The expiry clock and attempts budget a ``queue.json`` records.

    A queue initialised before the two were recorded reads as the
    defaults, the values every process then assumed.
    """
    clock = payload.get("expiry_clock", "wall")
    if clock not in EXPIRY_CLOCKS:
        raise ValueError(
            f"queue {root}: unknown expiry clock {clock!r}; "
            f"available: {', '.join(EXPIRY_CLOCKS)}"
        )
    max_attempts = payload.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
    if type(max_attempts) is not int or max_attempts < 1:
        raise ValueError(
            f"queue {root}: max_attempts {max_attempts!r} is not an "
            "integer >= 1"
        )
    return clock, max_attempts


def _write_json(
    path: Path, payload: dict, exclusive: bool = False
) -> bool:
    """Atomically write one queue record (see ``atomic_write``)."""
    return atomic_write(
        path,
        json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"),
        exclusive=exclusive,
    )


class WorkQueue:
    """A durable queue of sweep jobs under one directory.

    Open an existing queue with ``WorkQueue(root)``; create one with
    :meth:`WorkQueue.init`.  All mutating operations are safe to run
    concurrently from any number of processes sharing the directory.

    Every handle reads the queue's expiry clock (:attr:`clock`) and
    attempts budget (:attr:`max_attempts`) from ``queue.json``, so the
    workers, scavengers, status readers and fsck of one queue judge
    liveness and retries alike.
    """

    def __init__(
        self,
        root: Path | str,
        _allow_unready: bool = False,
    ) -> None:
        self.root = Path(root)
        payload = _read_json(self._queue_file)
        if payload is None:
            raise FileNotFoundError(
                f"no queue at {self.root} (run 'repro queue init' first)"
            )
        if payload.get("format") != QUEUE_FORMAT:
            raise ValueError(
                f"queue {self.root} has format {payload.get('format')!r}; "
                f"this build reads format {QUEUE_FORMAT}"
            )
        if not payload.get("ready", False) and not _allow_unready:
            # init marks the queue ready only after the full grid is
            # enqueued; without the gate a crash mid-init would leave a
            # partial grid indistinguishable from a drained sweep.
            raise ValueError(
                f"queue {self.root} was never fully initialised "
                "(init crashed mid-enqueue?); delete the directory and "
                "re-run 'repro queue init'"
            )
        self.clock, self.max_attempts = _settings(self.root, payload)
        self._payload = payload
        self._spec = SweepSpec(**payload["spec"])
        self._configs: dict[str, SimulationConfig] | None = None
        # (monotonic at probe, filesystem now at probe) — see
        # _filesystem_now_cached.
        self._clock_probe: tuple[float, float] | None = None

    # -- creation -----------------------------------------------------

    @classmethod
    def init(
        cls,
        root: Path | str,
        spec: SweepSpec,
        adaptive: dict | None = None,
        expiry_clock: str = "wall",
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> "WorkQueue":
        """Create a queue directory and enqueue the spec's full grid.

        ``adaptive`` is the optional payload of an
        :class:`~repro.scheduler.adaptive.AdaptiveConfig`; it is stored
        verbatim so every worker derives the same controller.
        ``expiry_clock`` (one of :data:`EXPIRY_CLOCKS`) and
        ``max_attempts`` are recorded beside it, once for every process
        that will open the queue.
        """
        root = Path(root)
        queue_file = root / "queue.json"
        if queue_file.exists():
            raise FileExistsError(
                f"queue already initialised at {root}; "
                "point init at a fresh directory"
            )
        payload = {
            "format": QUEUE_FORMAT,
            "name": spec.name,
            "spec": spec.payload(),
            "spec_hash": spec.spec_hash(),
            "engine_version": ENGINE_VERSION,
            "adaptive": adaptive,
            "expiry_clock": expiry_clock,
            "max_attempts": max_attempts,
            "ready": False,
        }
        _settings(root, payload)  # refuse before writing anything
        root.mkdir(parents=True, exist_ok=True)
        for name in ("jobs", "pending", "leases", "done", "heartbeats"):
            (root / name).mkdir(exist_ok=True)
        _write_json(queue_file, payload)
        queue = cls(root, _allow_unready=True)
        queue.enqueue(spec.expand())
        # The ready flip is the init commit point: workers refuse a
        # queue whose grid might be partial.
        payload["ready"] = True
        _write_json(queue_file, payload)
        queue._payload = payload
        return queue

    # -- paths --------------------------------------------------------

    @property
    def _queue_file(self) -> Path:
        return self.root / "queue.json"

    @property
    def directories(self) -> tuple[Path, ...]:
        """The queue root and every record directory under it."""
        return (
            self.root,
            self.jobs_dir,
            self.pending_dir,
            self.leases_dir,
            self.done_dir,
            self.heartbeats_dir,
            self.counters_dir,
        )

    @property
    def jobs_dir(self) -> Path:
        return self.root / "jobs"

    @property
    def pending_dir(self) -> Path:
        return self.root / "pending"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    @property
    def heartbeats_dir(self) -> Path:
        return self.root / "heartbeats"

    @property
    def counters_dir(self) -> Path:
        """Per-worker telemetry counters, next to the heartbeats.

        Created lazily by the first :meth:`write_worker_counters` —
        pre-telemetry queues never grow it and the on-disk format tag
        (:data:`QUEUE_FORMAT`) is unchanged.
        """
        return self.root / "counters"

    # -- identity -----------------------------------------------------

    @property
    def name(self) -> str:
        return self._payload["name"]

    @property
    def spec(self) -> SweepSpec:
        return self._spec

    @property
    def spec_hash(self) -> str:
        return self._payload["spec_hash"]

    @property
    def adaptive_payload(self) -> dict | None:
        return self._payload.get("adaptive")

    def config_for(self, scenario: str) -> SimulationConfig:
        """The fully built config of one catalog scenario at the
        queue's scale (memoised; identical on every worker)."""
        if self._configs is None:
            from repro.sweeps.scenarios import scenario_catalog

            catalog = scenario_catalog(self._spec.scale)
            self._configs = {
                name: entry.config for name, entry in catalog.items()
            }
        return self._configs[scenario]

    def trace_id(self, identifier: str) -> str:
        """The fleet-wide trace id of job ``identifier`` in this queue.

        Deterministic over (spec hash, job id): re-enqueueing the same
        cell mints the same id (idempotent enqueue stays a
        byte-identical no-op) and pre-tracing queues can be joined by
        deriving the id after the fact.
        """
        return mint_trace_id("queue", self.spec_hash, identifier)

    # -- enqueue ------------------------------------------------------

    def enqueue(self, sweep_jobs: list[SweepJob]) -> int:
        """Add jobs, skipping ids with live state (ticket, lease, or
        done record); returns how many were actually added.

        Deduping on the *live* state rather than the job record makes
        enqueue both idempotent under replica races (controllers that
        derive the same extension add each job once) and self-repairing
        after a crash between the job-record write and the ticket write
        — the next replica recreates the missing ticket (the job-record
        rewrite is an identical-bytes no-op).  The residual race — two
        processes both passing the check — at worst re-creates a ticket
        for a job another worker is already running, which the
        at-least-once contract absorbs.
        """
        leased_ids = {
            path.name.partition(_LEASE_SEPARATOR)[0]
            for path in _live_entries(self.leases_dir)
        }
        added = 0
        for sweep_job in sweep_jobs:
            identifier = job_id(
                sweep_job.scenario, sweep_job.method, sweep_job.seed
            )
            if (
                (self.pending_dir / identifier).exists()
                or identifier in leased_ids
                or (self.done_dir / f"{identifier}.json").exists()
            ):
                continue
            record = QueueJob(
                id=identifier,
                scenario=sweep_job.scenario,
                method=sweep_job.method,
                seed=sweep_job.seed,
                key=cache_key(
                    self.config_for(sweep_job.scenario),
                    sweep_job.method,
                    sweep_job.seed,
                ),
                trace=self.trace_id(identifier),
            )
            # Job record first, then the ticket: a ticket never exists
            # without its (immutable) description.
            failpoint("queue.enqueue.record")
            _write_json(
                self.jobs_dir / f"{identifier}.json",
                dataclasses.asdict(record),
            )
            failpoint("queue.enqueue.ticket")
            _write_json(self.pending_dir / identifier, {"attempts": 0})
            added += 1
        return added

    # -- leasing ------------------------------------------------------

    def now(self) -> float:
        """"Now" under this queue's recorded expiry clock.

        The filesystem's clock for ``mtime`` queues (cached probe), the
        local wall clock otherwise.
        """
        return (
            self._filesystem_now_cached()
            if self.clock == "mtime"
            else time.time()
        )

    def heartbeat(
        self, owner: str, ttl: float, now: float | None = None
    ) -> None:
        """Publish/renew ``owner``'s liveness deadline (now + ttl).

        ``now`` defaults to :meth:`now`, the queue's expiry clock, so
        the recorded absolute deadline is on the clock its scavengers
        judge it by.
        """
        now = self.now() if now is None else now
        # Record the sanitised owner: it's the form the lease filenames
        # carry, so liveness lookups join on one spelling.  The TTL is
        # recorded alongside the absolute deadline so mtime-clock
        # scavengers can derive a deadline from the file's own mtime.
        owner = _sanitize(owner)
        failpoint("queue.heartbeat")
        _write_json(
            self.heartbeats_dir / f"{owner}.json",
            {
                "owner": owner,
                "deadline": now + float(ttl),
                "ttl": float(ttl),
                "pid": os.getpid(),
            },
        )
        _telemetry_note("heartbeat", event=False)

    def retire(self, owner: str) -> None:
        """Remove ``owner``'s heartbeat — call on clean worker exit.

        Without this, status reports the exited worker as alive (and
        the ETA divides by it) until the stale deadline lapses.  Any
        lease the owner somehow still held simply expires immediately,
        which is exactly what a scavenger should see.
        """
        (
            self.heartbeats_dir / f"{_sanitize(owner)}.json"
        ).unlink(missing_ok=True)

    def claim(
        self, owner: str, ttl: float, now: float | None = None
    ) -> Lease | None:
        """Try to lease one pending job; ``None`` when nothing pending.

        The heartbeat is written *before* the ticket rename so a fresh
        lease is never observable without a live deadline.
        """
        owner = _sanitize(owner)
        tickets = _live_entries(self.pending_dir)
        if not tickets:
            # Nothing to claim: skip the heartbeat write.  An idle
            # worker polls claim() twice a second, and the heartbeater
            # thread already renews at ttl/3 — the protocol only needs
            # a live deadline before a rename is attempted.
            return None
        self.heartbeat(owner, ttl, now)
        for ticket in tickets:
            target = self.leases_dir / (
                f"{ticket.name}{_LEASE_SEPARATOR}{owner}"
            )
            failpoint("queue.claim.before_rename")
            try:
                os.rename(ticket, target)
            except FileNotFoundError:
                continue  # another worker won this ticket
            failpoint("queue.claim.after_rename")
            record = _read_json(self.jobs_dir / f"{ticket.name}.json")
            if record is None:
                # Unreadable job record.  On a shared filesystem this
                # can be transient (NFS attribute caching, a momentary
                # EIO), so retry with the attempts budget rather than
                # condemning the cell outright.
                self._retry_or_park(
                    target, ticket.name, owner, "unreadable job record"
                )
                continue
            job = QueueJob(
                id=record["id"],
                scenario=record["scenario"],
                method=record["method"],
                seed=int(record["seed"]),
                key=record["key"],
                trace=record.get("trace") or self.trace_id(record["id"]),
            )
            # Re-publish the heartbeat now that the rename has landed:
            # an exiting same-owner session may have retired the
            # pre-rename heartbeat in the window before our rename, and
            # a lease must never sit without a live deadline.
            self.heartbeat(owner, ttl, now)
            _telemetry_note(
                "claim",
                {"id": job.id, "owner": owner, "trace": job.trace},
            )
            return Lease(job=job, owner=owner, path=target)
        return None

    def _retry_or_park(
        self, lease_path: Path, identifier: str, owner: str, error: str
    ) -> str:
        """Requeue a failed lease, or park it as an error record once
        the queue's attempts budget (:attr:`max_attempts`) is spent.
        Returns ``requeued`` / ``error``.
        """
        ticket = _read_json(lease_path)
        if ticket is None:
            if not lease_path.exists():
                # The lease is already gone — scavenged by
                # requeue_expired (our heartbeat lapsed mid-execution)
                # or acked elsewhere.  Recreating it here would inject
                # a phantom ticket and reset the attempts counter;
                # whoever took it owns it now.
                return "gone"
            # Present but transiently unreadable (NFS attribute cache,
            # momentary EIO): deciding now would reset the attempts
            # counter to 1 and un-bound the retry budget.  Leave the
            # lease alone; the next scavenger pass retries the read.
            return "skipped"
        if (self.done_dir / f"{identifier}.json").exists():
            # An ack landed between the caller's checks and our read:
            # done wins.  Requeueing now would resurrect a ticket for
            # finished work (and our rewrite would recreate the lease
            # file ack just unlinked).
            lease_path.unlink(missing_ok=True)
            return "gone"
        attempts = int(ticket.get("attempts", 0)) + 1
        if attempts >= self.max_attempts:
            # Exclusive create: a concurrent ack may have landed a real
            # completion between the caller's checks and here, and an
            # error verdict must never clobber a real result (ack's
            # overwrite in the other direction is intentional).
            failpoint("queue.park")
            created = _write_json(
                self.done_dir / f"{identifier}.json",
                {
                    "id": identifier,
                    "state": "error",
                    "error": error,
                    "owner": owner,
                    "attempts": attempts,
                },
                exclusive=True,
            )
            lease_path.unlink(missing_ok=True)
            if created:
                _telemetry_note(
                    "park",
                    {
                        "id": identifier,
                        "owner": owner,
                        "error": error,
                        "trace": self.trace_id(identifier),
                    },
                )
                return "error"
            return "gone"
        failpoint("queue.requeue")
        _write_json(lease_path, {"attempts": attempts})
        try:
            os.rename(lease_path, self.pending_dir / identifier)
        except FileNotFoundError:
            pass  # a concurrent scavenger already returned it
        _telemetry_note(
            "requeue",
            {
                "id": identifier,
                "owner": owner,
                "trace": self.trace_id(identifier),
            },
        )
        return "requeued"

    def fail(self, lease: Lease, error: str) -> str:
        """Record a failed execution: requeue within the attempts
        budget, park as a ``done/`` error record beyond it.

        Returns ``requeued`` or ``error``.  Either way the worker moves
        on — a poison job must never crash-loop the fleet.
        """
        return self._retry_or_park(
            lease.path, lease.job.id, lease.owner, error
        )

    def ack(
        self,
        lease: Lease,
        state: str,
        duration_s: float | None = None,
    ) -> None:
        """Record completion and release the lease.

        ``state`` is ``simulated`` or ``store_hit`` (the executor's
        ground truth), matching the sweep-manifest vocabulary.
        """
        failpoint("queue.ack.before_done")
        _write_json(
            self.done_dir / f"{lease.job.id}.json",
            {
                **dataclasses.asdict(lease.job),
                "owner": lease.owner,
                "state": state,
                "duration_s": duration_s,
            },
        )
        # Done record first, lease unlink second: a crash in between
        # leaves a stale lease the scavenger discards (done wins),
        # never a lost result.
        failpoint("queue.ack.after_done")
        lease.path.unlink(missing_ok=True)
        # The trace and duration ride the ack attrs so a store-hit job
        # (which emits no cell span anywhere) is still fully accounted
        # for in the merged timeline.
        _telemetry_note(
            "ack",
            {
                "id": lease.job.id,
                "owner": lease.owner,
                "state": state,
                "trace": lease.job.trace or self.trace_id(lease.job.id),
                "duration_s": duration_s,
            },
        )

    def filesystem_now(self) -> float:
        """The shared filesystem's idea of "now", probed under the
        queue root (:func:`repro._io.filesystem_now`)."""
        return filesystem_now(self.root)

    #: How long a filesystem clock probe stays fresh.  Between probes
    #: the cached value is extrapolated with the local *monotonic*
    #: clock (skew-free by definition), so the only drift is rate
    #: drift over a few seconds — negligible against lease TTLs.
    _CLOCK_PROBE_REFRESH = 15.0

    def _filesystem_now_cached(self) -> float:
        """`filesystem_now`, amortised for tight scavenging loops.

        A waiting worker scavenges twice a second for a whole drain
        tail; probing the file server on every pass (create + fsync +
        unlink) would turn an idle fleet into real server load.
        """
        mono = time.monotonic()
        if (
            self._clock_probe is None
            or mono - self._clock_probe[0] > self._CLOCK_PROBE_REFRESH
        ):
            self._clock_probe = (mono, self.filesystem_now())
        probed_mono, probed_fs = self._clock_probe
        return probed_fs + (mono - probed_mono)

    def _heartbeat_deadline(self, owner: str) -> float:
        """The instant ``owner``'s liveness lapses, under the queue's
        clock.

        ``-inf`` (immediately expired) when the heartbeat is missing or
        unreadable.  Under ``mtime`` the deadline is the heartbeat
        file's mtime plus its recorded TTL; a pre-TTL-field heartbeat
        (none are written anymore) degrades to its wall deadline.
        """
        path = self.heartbeats_dir / f"{owner}.json"
        heartbeat = _read_json(path)
        if not heartbeat or "deadline" not in heartbeat:
            return float("-inf")
        if self.clock == "mtime" and "ttl" in heartbeat:
            try:
                return path.stat().st_mtime + float(heartbeat["ttl"])
            except OSError:
                return float("-inf")
        return float(heartbeat["deadline"])

    def heartbeat_deadline(self, owner: str) -> float:
        """Public form of the deadline rule status readers must share,
        so monitoring judges liveness exactly as the scavengers do.

        An owner that sanitises to nothing (the empty string) names no
        heartbeat file, so it has no heartbeat: ``-inf``.
        """
        if not owner:
            return float("-inf")
        return self._heartbeat_deadline(_sanitize(owner))

    def requeue_expired(self, now: float | None = None) -> list[str]:
        """Return expired leases to ``pending/``; returns their ids.

        A lease is expired when its owner's heartbeat deadline has
        passed or the heartbeat file is missing/unreadable.  Leases
        whose job already has a done record are discarded instead.
        Expiry consumes the same attempts budget as execution failures
        — a job that kills its worker outright (OOM, power loss) parks
        as an error record after :attr:`max_attempts` rather than
        crash-looping the fleet forever.  (If the presumed-dead owner
        does finish, its ``ack`` overwrites the error record: a real
        result always wins.)

        Expiry is judged under the queue's recorded clock (see
        :data:`EXPIRY_CLOCKS`): ``wall`` uses recorded absolute
        deadlines against this process's clock; ``mtime`` derives both
        the deadline (heartbeat mtime + TTL) and "now"
        (:meth:`filesystem_now`, unless an explicit ``now`` is passed)
        from the shared filesystem, so multi-box queues need no NTP.
        """
        leases = _live_entries(self.leases_dir)
        if not leases:
            # Nothing to judge: skip the clock probe.  Idle waiting
            # workers call this twice a second, and under the mtime
            # clock each probe is a create+sync+unlink round trip
            # against the shared file server.
            return []
        now = self.now() if now is None else now
        requeued: list[str] = []
        for lease_path in leases:
            identifier, sep, owner = lease_path.name.partition(
                _LEASE_SEPARATOR
            )
            if not sep:
                continue  # not a lease file
            if (self.done_dir / f"{identifier}.json").exists():
                lease_path.unlink(missing_ok=True)
                continue
            deadline = self._heartbeat_deadline(owner)
            if deadline >= now:
                continue
            _telemetry_note(
                "expiry",
                {
                    "id": identifier,
                    "owner": owner,
                    "trace": self.trace_id(identifier),
                },
            )
            outcome = self._retry_or_park(
                lease_path,
                identifier,
                owner,
                f"lease expired (worker {owner} presumed dead)",
            )
            if outcome == "requeued":
                requeued.append(identifier)
        return requeued

    # -- introspection ------------------------------------------------

    def jobs(self) -> list[QueueJob]:
        """Every job ever enqueued, sorted by id."""
        records = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            record = _read_json(path)
            if record is None:
                continue
            records.append(
                QueueJob(
                    id=record["id"],
                    scenario=record["scenario"],
                    method=record["method"],
                    seed=int(record["seed"]),
                    key=record["key"],
                    trace=record.get("trace"),
                )
            )
        return records

    def done_records(self) -> list[dict]:
        """Every completion record, sorted by job id."""
        records = []
        for path in sorted(self.done_dir.glob("*.json")):
            record = _read_json(path)
            if record is not None:
                records.append(record)
        return records

    def error_records(self) -> list[dict]:
        """Done records that are error parks, sorted by job id."""
        return [
            record
            for record in self.done_records()
            if record.get("state") == "error"
        ]

    def _live_ids(self) -> set[str]:
        """Ids with any live state: ticket, lease, or done record."""
        return (
            {path.name for path in _live_entries(self.pending_dir)}
            | {
                path.name.partition(_LEASE_SEPARATOR)[0]
                for path in _live_entries(self.leases_dir)
            }
            | {path.stem for path in self.done_dir.glob("*.json")}
        )

    def stranded_jobs(self) -> list[str]:
        """Job ids with no live state at all.

        The footprint of a crash between an enqueue's job-record write
        and its ticket write (or between a retry's done-unlink and
        ticket write): the job exists but nothing will ever run it.
        The adaptive controller re-enqueues these itself; non-adaptive
        queues repair them through :meth:`retry_errors`.
        """
        live = self._live_ids()
        return sorted(
            path.stem
            for path in self.jobs_dir.glob("*.json")
            if path.stem not in live
        )

    def retry_errors(self, ids: list[str] | None = None) -> RetryReport:
        """Requeue error-parked jobs with a fresh attempts budget.

        ``ids`` restricts the pass to specific job ids (default: every
        error record).  For each, the error record is unlinked *first*
        and the fresh ticket written second — the opposite order would
        let a scavenger see (lease, done-error) and discard a freshly
        claimed lease under the "done wins" rule.  A crash in between
        leaves the job stranded, which the same pass repairs next time
        (stranded jobs are re-ticketed here too).

        Unknown ids and records that are not error parks are skipped
        with a reason, never touched.
        """
        wanted = None if ids is None else set(ids)
        errors = {record["id"]: record for record in self.error_records()}
        # One stranded listing for both the skip filter and the
        # re-ticket pass: requeueing an error park only *adds* live
        # state, so the set cannot grow in between, and a job must
        # never be reported skipped and re-ticketed at once.
        stranded = set(self.stranded_jobs())
        requeued: list[str] = []
        skipped: list[tuple[str, str]] = []
        if wanted is not None:
            for identifier in sorted(wanted - set(errors) - stranded):
                if (self.done_dir / f"{identifier}.json").exists():
                    skipped.append(
                        (identifier, "done record is not an error park")
                    )
                else:
                    skipped.append((identifier, "no error record"))
        for identifier in sorted(errors):
            if wanted is not None and identifier not in wanted:
                continue
            if _read_json(self.jobs_dir / f"{identifier}.json") is None:
                # Without a readable job record a recreated ticket
                # could never be claimed into a runnable job.
                skipped.append((identifier, "unreadable job record"))
                continue
            (self.done_dir / f"{identifier}.json").unlink(missing_ok=True)
            _write_json(self.pending_dir / identifier, {"attempts": 0})
            requeued.append(identifier)
        reticketed: list[str] = []
        for identifier in sorted(stranded):
            if wanted is not None and identifier not in wanted:
                continue
            _write_json(self.pending_dir / identifier, {"attempts": 0})
            reticketed.append(identifier)
        return RetryReport(
            requeued=tuple(requeued),
            reticketed=tuple(reticketed),
            skipped=tuple(skipped),
        )

    def gc(
        self,
        prune: bool = False,
        now: float | None = None,
        temp_age: float = DEFAULT_TEMP_AGE,
        extra_roots: tuple[Path | str, ...] = (),
        heartbeat_grace: float = 3600.0,
    ) -> GcReport:
        """Find (and with ``prune``, remove) queue-directory litter.

        Crash litter is every footprint :func:`repro._io.crash_litter`
        declares that is older than ``temp_age`` seconds — younger ones
        may belong to a live writer and are left alone — in the queue
        directories and any ``extra_roots`` (the CLI passes the result
        store, its manifest directory, and the telemetry and audit
        directories).  Heartbeats are stale once their *file* has not
        been touched for ``heartbeat_grace`` seconds past the recorded
        TTL *and* the owner holds no leases — a crashed worker's last
        sign of life that would otherwise sit in ``status`` output
        forever.  Stranded jobs are reported for ``retry`` but never
        pruned: deleting state is not how a queue repairs itself.

        All ages are judged against the shared filesystem's clock
        (:meth:`filesystem_now`) and file mtimes — both stamped by the
        file server — so a skewed gc box can neither prune a live
        writer's seconds-old temp nor overlook a long-dead worker's
        heartbeat.  ``now`` overrides the probe (tests).
        """
        now = self.filesystem_now() if now is None else now
        temp_files = crash_litter(
            (*self.directories, *extra_roots), now, temp_age
        )
        lease_owners = self.lease_owners()
        stale_heartbeats: list[str] = []
        for heartbeat in self.heartbeats():
            owner = heartbeat.get("owner")
            if not owner or lease_owners.get(owner):
                continue
            path = self.heartbeats_dir / f"{owner}.json"
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            ttl = float(heartbeat.get("ttl", 0.0))
            if age > ttl + heartbeat_grace:
                stale_heartbeats.append(owner)
        if prune:
            for path in temp_files:
                path.unlink(missing_ok=True)
            for owner in stale_heartbeats:
                (
                    self.heartbeats_dir / f"{owner}.json"
                ).unlink(missing_ok=True)
                # The worker's counter snapshot dies with its heartbeat
                # — a long-gone owner should drop off the dashboard too.
                (
                    self.counters_dir / f"{owner}.json"
                ).unlink(missing_ok=True)
        return GcReport(
            temp_files=tuple(temp_files),
            stale_heartbeats=tuple(stale_heartbeats),
            stranded_jobs=tuple(self.stranded_jobs()),
            pruned=prune,
        )

    def write_worker_counters(self, owner: str, payload: dict) -> None:
        """Atomically publish one worker's counter snapshot.

        Written by workers after every job (cheap: one small JSON next
        to the heartbeats), read by ``queue status --json`` and the
        ``queue top`` dashboard.  The directory is created on first
        write so pre-telemetry queues are untouched.
        """
        self.counters_dir.mkdir(parents=True, exist_ok=True)
        _write_json(
            self.counters_dir / f"{_sanitize(owner)}.json", payload
        )

    def worker_counters(self) -> dict[str, dict]:
        """owner → latest published counter snapshot (may be empty)."""
        counters: dict[str, dict] = {}
        if not self.counters_dir.is_dir():
            return counters
        for path in sorted(self.counters_dir.glob("*.json")):
            record = _read_json(path)
            if record is not None:
                counters[path.stem] = record
        return counters

    def lease_ages(self, now: float | None = None) -> list[dict]:
        """Every live lease with its age in seconds, oldest first.

        Age is derived from the lease file's mtime — the moment the
        claim rename (or the last attempts rewrite) landed — against
        the queue's recorded expiry clock, so it is meaningful on
        mtime-clock multi-box queues too.
        """
        if now is None:
            now = self.now()
        ages = []
        for lease_path in _live_entries(self.leases_dir):
            identifier, sep, owner = lease_path.name.partition(
                _LEASE_SEPARATOR
            )
            if not sep:
                continue
            try:
                mtime = lease_path.stat().st_mtime
            except OSError:
                continue  # acked or scavenged mid-scan
            ages.append(
                {
                    "id": identifier,
                    "owner": owner,
                    "age_s": max(0.0, now - mtime),
                }
            )
        ages.sort(key=lambda entry: -entry["age_s"])
        return ages

    def heartbeats(self) -> list[dict]:
        """Every worker heartbeat on record, sorted by owner."""
        records = []
        for path in sorted(self.heartbeats_dir.glob("*.json")):
            record = _read_json(path)
            if record is not None:
                records.append(record)
        return records

    def lease_owners(self) -> dict[str, int]:
        """owner → number of leases currently held."""
        owners: dict[str, int] = {}
        for lease_path in _live_entries(self.leases_dir):
            _, sep, owner = lease_path.name.partition(_LEASE_SEPARATOR)
            if sep:
                owners[owner] = owners.get(owner, 0) + 1
        return owners

    def counts(self) -> QueueCounts:
        return QueueCounts(
            jobs=sum(1 for _ in self.jobs_dir.glob("*.json")),
            pending=len(_live_entries(self.pending_dir)),
            leased=len(_live_entries(self.leases_dir)),
            done=sum(1 for _ in self.done_dir.glob("*.json")),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        counts = self.counts()
        return (
            f"WorkQueue(root={str(self.root)!r}, name={self.name!r}, "
            f"pending={counts.pending}, leased={counts.leased}, "
            f"done={counts.done})"
        )
