"""The worker daemon: lease → simulate → ack, until drained or told to
stop.

``QueueWorker.run`` is the whole daemon: it scavenges expired leases,
claims one job at a time, routes it through the configured
:class:`~repro.experiments.executor.ExperimentExecutor` (so a job whose
result already sits in the shared :class:`ResultStore` is a store hit,
not a re-simulation), acks it, and repeats.  A background thread renews
the worker's heartbeat for the whole session, so a lease never expires
under a live worker no matter how long one simulation takes.

When the queue looks empty the worker first gives the adaptive
controller (if the queue was initialised with one) a chance to extend
scenarios whose confidence intervals are still wide; only when the
queue is drained *and* the controller declines does the worker exit —
unless ``wait=True`` keeps it polling as a standing daemon.

On exit the worker writes a *worker manifest* into the store's
``manifests/`` directory — same format, vocabulary, and identity
scheme as the static-shard manifests of
:class:`~repro.sweeps.runner.SweepRunner`, with worker identity in
place of shard coordinates — so ``repro sweep status`` and the
aggregation layer treat queue-produced stores exactly like shard
produced ones.

SIGTERM/SIGINT (when handlers are installed, as the CLI does) request a
graceful drain: the in-flight job finishes and is acked, the manifest
is written, and the loop exits.  A worker killed harder than that loses
only its leases, which the TTL scavenger returns to the queue.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading
import time
import uuid
from pathlib import Path

from repro._checks import check_number
from repro.experiments.executor import (
    ExperimentExecutor,
    SimulationJob,
    get_default_executor,
)
from repro.experiments.store import key_scope
from repro.reliability.failpoints import failpoint
from repro.reliability.retry import retry_io
from repro.scheduler.adaptive import AdaptiveController
from repro.scheduler.queue import WorkQueue, sanitize_owner
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.runner import environment_hash, write_manifest
from repro.telemetry.registry import get_telemetry

__all__ = ["QueueWorker", "WorkerReport", "default_owner_id"]

#: Default lease TTL in seconds.  Generous relative to the heartbeat
#: interval (ttl / 3), so only a genuinely dead worker expires.
DEFAULT_TTL = 60.0


def default_owner_id() -> str:
    """A process-unique worker id: host, pid, and a random tail."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


@dataclasses.dataclass(frozen=True)
class WorkerReport:
    """What one worker session did.

    ``failed`` counts executions that raised; each such job was either
    requeued for another attempt or — once its attempts budget ran out
    — parked as a ``done/`` error record, never crash-looped.
    """

    owner: str
    processed: int
    simulated: int
    store_hits: int
    failed: int
    requeued: int
    manifest_path: Path | None
    stopped_by_signal: bool


class _Heartbeater(threading.Thread):
    """Renews one owner's heartbeat every ``ttl / 3`` seconds.

    Each renewal retries transient ``OSError`` s through
    :func:`~repro.reliability.retry.retry_io`; a renewal that fails its
    whole retry budget counts as one *miss*.  After
    :data:`MAX_CONSECUTIVE_MISSES` misses in a row the thread gives up
    and invokes ``on_failure`` (the worker drains itself): a worker
    that cannot publish liveness is, to every scavenger, already dead —
    its leases *will* expire and be re-run — so continuing to simulate
    only doubles work and races the fleet.  The old behaviour
    (swallow every ``OSError`` forever) made that zombie state
    permanent and invisible.
    """

    #: Renewal failures in a row (each already retried with backoff)
    #: before the thread declares the heartbeat lost.  At ttl/3 per
    #: renewal this tolerates well over a lease TTL of flakiness before
    #: giving up.
    MAX_CONSECUTIVE_MISSES = 5

    def __init__(
        self,
        queue: WorkQueue,
        owner: str,
        ttl: float,
        on_failure=None,
    ) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{owner}")
        self._queue = queue
        self._owner = owner
        self._ttl = ttl
        self._on_failure = on_failure
        self.consecutive_misses = 0
        # NB: not "_stop" — threading.Thread uses that name internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._ttl / 3.0):
            try:
                retry_io(
                    lambda: self._queue.heartbeat(self._owner, self._ttl),
                    "heartbeat",
                )
            except OSError:
                self.consecutive_misses += 1
                if self.consecutive_misses >= self.MAX_CONSECUTIVE_MISSES:
                    telemetry = get_telemetry()
                    if telemetry is not None:
                        telemetry.count("worker.heartbeat_lost")
                    if self._on_failure is not None:
                        self._on_failure()
                    return
            else:
                self.consecutive_misses = 0

    def stop(self) -> None:
        self._halt.set()


class QueueWorker:
    """Drains a :class:`WorkQueue` through an experiment executor.

    The worker judges lease expiry and spends attempts exactly as the
    queue records them (:attr:`WorkQueue.clock`,
    :attr:`WorkQueue.max_attempts`, set by ``repro queue init``): its
    scavenging passes, heartbeats and failure verdicts all go through
    the queue handle, so every worker of one queue agrees.

    Parameters
    ----------
    queue:
        The queue to drain.
    executor:
        Executor to run jobs through; ``None`` uses the process-wide
        default.  Must have a store — the queue's dedupe and resume
        guarantees live there.
    owner:
        Worker id recorded in leases, heartbeats, and the manifest;
        defaults to :func:`default_owner_id`.
    ttl:
        Lease time-to-live in seconds; the heartbeat renews at
        ``ttl / 3``.
    poll_interval:
        Sleep between queue checks while other workers still hold
        leases (their completion may unlock adaptive extensions).
    max_jobs:
        Stop after processing this many jobs (``None`` = unbounded).
    wait:
        Keep polling after the queue drains instead of exiting —
        standing-daemon mode for long-lived shared queues.
    """

    def __init__(
        self,
        queue: WorkQueue,
        executor: ExperimentExecutor | None = None,
        owner: str | None = None,
        ttl: float = DEFAULT_TTL,
        poll_interval: float = 0.5,
        max_jobs: int | None = None,
        wait: bool = False,
    ) -> None:
        self.queue = queue
        self._executor = executor
        # One owner spelling everywhere: leases, heartbeats, done
        # records, and the manifest filename all use the sanitised id.
        self.owner = sanitize_owner(
            owner if owner is not None else default_owner_id()
        )
        check_number("QueueWorker", "ttl", ttl, gt=0)
        self.ttl = float(ttl)
        self.poll_interval = float(poll_interval)
        self.max_jobs = max_jobs
        self.wait = wait
        self._stop_requested = False
        self._last_counters: dict = {}

    @property
    def executor(self) -> ExperimentExecutor:
        return (
            self._executor
            if self._executor is not None
            else get_default_executor()
        )

    def request_stop(self) -> None:
        """Ask the loop to drain gracefully after the in-flight job."""
        self._stop_requested = True

    def _publish_counters(
        self,
        entries: list[dict],
        failed: int,
        requeued: int,
        busy_s: float,
        last_job_s: float | None,
        last_job_id: str | None,
    ) -> None:
        """Publish this session's running counters after each job.

        The snapshot lands next to the heartbeats
        (``counters/<owner>.json``), where ``queue status --json`` and
        the ``queue top`` dashboard read it.  Best-effort: a transient
        filesystem error over a monitoring artefact must not kill the
        drain loop.  When telemetry is active, the job wall time also
        feeds the ``worker.job_s`` timer and the registry's events are
        flushed so dashboards see mid-drain state.
        """
        payload = {
            "owner": self.owner,
            "pid": os.getpid(),
            "updated": self.queue.now(),
            "processed": len(entries),
            "simulated": sum(
                1 for e in entries if e["state"] == "simulated"
            ),
            "store_hits": sum(
                1 for e in entries if e["state"] == "store_hit"
            ),
            "failed": failed,
            "requeued": requeued,
            "busy_s": busy_s,
            "last_job_s": last_job_s,
            "last_job_id": last_job_id,
        }
        self._last_counters = payload
        try:
            retry_io(
                lambda: self.queue.write_worker_counters(
                    self.owner, payload
                ),
                "counters",
            )
        except OSError:
            # Still best-effort once the retry budget is spent: a
            # monitoring artefact must not kill the drain loop.
            pass
        telemetry = get_telemetry()
        if telemetry is not None:
            if last_job_s is not None:
                telemetry.observe("worker.job_s", last_job_s)
            telemetry.flush()

    def _heartbeat_lost(self) -> None:
        """The heartbeater spent its whole failure budget: drain.

        Stamps ``heartbeat_lost`` into this worker's counters snapshot
        (so ``queue top``/``status`` show *why* the worker drained) and
        requests a graceful stop — the in-flight job finishes and acks;
        by then scavengers may already be re-running our leases, which
        the content-addressed store absorbs.
        """
        try:
            self.queue.write_worker_counters(
                self.owner,
                {
                    "owner": self.owner,
                    "pid": os.getpid(),
                    **self._last_counters,
                    "heartbeat_lost": True,
                },
            )
        except OSError:
            # The same broken filesystem that lost the heartbeat —
            # the local WorkerReport still records the stop.
            pass
        self.request_stop()

    # -- the daemon loop ----------------------------------------------

    # One key scope per session: each scenario's config is serialized once.
    @key_scope()
    def run(self, install_signal_handlers: bool = False) -> WorkerReport:
        """Drain the queue; returns a report of this session's work."""
        executor = self.executor
        if executor.store is None:
            raise ValueError(
                "queue workers need an executor with a result store "
                "(pass --cache-dir or set $REPRO_CACHE_DIR): the store "
                "is what makes at-least-once execution safe"
            )
        controller: AdaptiveController | None = None
        if self.queue.adaptive_payload is not None:
            controller = AdaptiveController(self.queue, executor.store)

        previous_handlers: list[tuple[int, object]] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers.append(
                    (signum, signal.getsignal(signum))
                )
                signal.signal(
                    signum, lambda *_: self.request_stop()
                )

        heartbeater = _Heartbeater(
            self.queue,
            self.owner,
            self.ttl,
            on_failure=self._heartbeat_lost,
        )
        self.queue.heartbeat(self.owner, self.ttl)
        heartbeater.start()
        entries: list[dict] = []
        requeued = 0
        failed = 0
        busy_s = 0.0
        try:
            while not self._stop_requested:
                failpoint("worker.loop")
                if (
                    self.max_jobs is not None
                    and len(entries) + failed >= self.max_jobs
                ):
                    # Failed attempts count against the session budget
                    # too: a cron-bounded session must not turn one
                    # poison job into max_attempts extra simulations.
                    break
                requeued += len(
                    retry_io(self.queue.requeue_expired, "scavenge")
                )
                lease = self.queue.claim(self.owner, self.ttl)
                if lease is None:
                    if controller is not None:
                        decisions = controller.step()
                        if controller.enqueued(decisions):
                            continue
                    if self.queue.counts().drained and not self.wait:
                        break
                    # Someone else's leases (or wait mode): their
                    # completion may unlock adaptive extensions, so
                    # poll rather than exit.
                    time.sleep(self.poll_interval)
                    continue
                job = lease.job
                started = time.monotonic()
                try:
                    [(_, store_hit)] = executor.run_detailed(
                        [
                            SimulationJob(
                                self.queue.config_for(job.scenario),
                                job.method,
                                job.seed,
                                trace=job.trace,
                            )
                        ]
                    )
                except Exception as error:  # noqa: BLE001 - poison job
                    # A job whose execution raises (corrupt store read,
                    # engine assertion, dead pool child) must not kill
                    # the worker: requeue it within its attempts budget
                    # or park it as an error record, then move on.
                    failed += 1
                    self.queue.fail(lease, f"{type(error).__name__}: {error}")
                    duration = time.monotonic() - started
                    busy_s += duration
                    self._publish_counters(
                        entries, failed, requeued, busy_s, duration, job.id
                    )
                    continue
                state = "store_hit" if store_hit else "simulated"
                duration = time.monotonic() - started
                self.queue.ack(lease, state, duration_s=duration)
                entries.append(
                    {
                        "scenario": job.scenario,
                        "method": job.method,
                        "seed": job.seed,
                        "key": job.key,
                        "state": state,
                    }
                )
                busy_s += duration
                self._publish_counters(
                    entries, failed, requeued, busy_s, duration, job.id
                )
        finally:
            heartbeater.stop()
            heartbeater.join(timeout=5.0)
            # Retire the heartbeat so status stops counting this
            # worker as alive the moment the session ends.  A
            # concurrent session sharing our --owner may be
            # mid-simulation; if one holds a lease after the unlink we
            # lost that race — restore the liveness immediately (its
            # own heartbeater keeps renewing from there).  A claim that
            # lands after this re-check writes its own fresh heartbeat,
            # so no interleaving leaves a live lease uncovered.
            self.queue.retire(self.owner)
            if self.queue.lease_owners().get(self.owner):
                self.queue.heartbeat(self.owner, self.ttl)
            for signum, handler in previous_handlers:
                signal.signal(signum, handler)

        manifest_path = (
            write_worker_manifest(
                executor.store.root,
                self.queue,
                self.owner,
                entries,
                session=uuid.uuid4().hex[:8],
            )
            if entries
            else None
        )
        return WorkerReport(
            owner=self.owner,
            processed=len(entries),
            simulated=sum(
                1 for e in entries if e["state"] == "simulated"
            ),
            store_hits=sum(
                1 for e in entries if e["state"] == "store_hit"
            ),
            failed=failed,
            requeued=requeued,
            manifest_path=manifest_path,
            stopped_by_signal=self._stop_requested,
        )


def write_worker_manifest(
    store_root: Path,
    queue: WorkQueue,
    owner: str,
    entries: list[dict],
    session: str = "0",
) -> Path:
    """Record one worker session in the store's manifest directory.

    Routed through the sweep layer's single manifest writer, with
    ``worker``/``queue`` fields in place of shard coordinates —
    ``repro sweep status`` reads both kinds with one parser.
    ``session`` keeps the filename unique per worker *session*: a cron
    job re-running ``queue work`` under a fixed ``--owner`` must append
    a new manifest, not overwrite the last one.
    """
    owner = sanitize_owner(owner)
    spec = queue.spec
    return write_manifest(
        store_root,
        spec,
        environment_hash(spec),
        {"worker": owner, "queue": str(queue.root)},
        f"worker-{owner}.{sanitize_owner(session)}",
        entries,
    )
