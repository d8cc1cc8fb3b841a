"""Queue observability: depth, worker liveness, ETA, and reporting.

:func:`queue_status` distils a queue directory (and optionally the
result store next to it) into one JSON-ready dict — the same payload
``repro queue status --json`` prints and CI asserts on.  The
``manifests`` section reuses
:func:`repro.sweeps.runner.manifest_status`, so the sweep CLI, the
queue monitor, and CI all parse manifests through one function.

:func:`queue_report` renders the per-(scenario, method) summary table
for whatever the queue has *completed so far* — including adaptively
added seeds, which static ``sweep report`` (spec-shaped by definition)
would not know to ask for.  Formatting is shared with the sweep layer
(:func:`~repro.sweeps.aggregate.format_sweep_table`), so a fully
drained non-adaptive queue reports byte-identically to the equivalent
static sweep.
"""

from __future__ import annotations

import json
import math
import time

from repro.analysis.series import CellRuns
from repro.experiments.executor import (
    ExperimentExecutor,
    SimulationJob,
    get_default_executor,
)
from repro.experiments.store import key_scope
from repro.scheduler.queue import WorkQueue
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.aggregate import (
    ScenarioMethodSummary,
    summarize_cell,
)
from repro.sweeps.runner import load_manifests, manifest_status

__all__ = [
    "fleet_state",
    "format_queue_status",
    "format_queue_top",
    "queue_cells",
    "queue_report",
    "queue_status",
    "queue_top",
]

#: A live fleet refreshes its state file every couple of seconds; a
#: file not updated for this long belongs to a supervisor that died
#: without its final write and is reported as stale.
FLEET_STATE_STALE_S = 30.0


def fleet_state(queue: WorkQueue, now: float | None = None) -> dict | None:
    """The fleet supervisor's advisory state for this queue, if any.

    Reads ``<queue>/fleet.json`` (written by
    :class:`repro.scheduler.fleet.FleetSupervisor` when launched via
    the CLI).  Returns ``None`` when no fleet ever ran here or the
    file is unreadable — the dashboard simply omits the section.  A
    ``running`` fleet whose file has gone quiet for
    :data:`FLEET_STATE_STALE_S` seconds gains ``"stale": True``:
    supervisors publish at least every couple of seconds, so silence
    means the supervisor itself is gone.
    """
    from repro.scheduler.fleet import FLEET_STATE_NAME

    path = queue.root / FLEET_STATE_NAME
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(state, dict):
        return None
    # The supervisor stamps `updated` with the wall clock of its own
    # box; judge staleness against the same clock, not the queue's
    # expiry clock.
    now = time.time() if now is None else now
    state["stale"] = bool(
        state.get("running")
        and now - float(state.get("updated", 0.0)) > FLEET_STATE_STALE_S
    )
    return state


def queue_cells(
    queue: WorkQueue, done_records: list[dict] | None = None
) -> list[CellRuns]:
    """The *completed* cells of a queue, as analysis-layer cell runs.

    The figure catalog normally discovers cells through store
    manifests, but a live queue's manifests only appear when workers
    exit — the authoritative record of what is done *right now* is the
    queue's done directory.  This adapter lets ``queue report
    --figures`` render a partially drained (or adaptively extended)
    queue: one cell per (scenario, method) holding exactly the seeds
    with a successful completion record.
    """
    if done_records is None:
        done_records = queue.done_records()
    seeds_by_cell: dict[tuple[str, str], set[int]] = {}
    for record in done_records:
        if record.get("state") not in ("simulated", "store_hit"):
            continue
        seeds_by_cell.setdefault(
            (record["scenario"], record["method"]), set()
        ).add(int(record["seed"]))
    return [
        CellRuns(
            scenario=scenario,
            method=method,
            config=queue.config_for(scenario),
            seeds=tuple(sorted(seeds)),
        )
        for (scenario, method), seeds in sorted(seeds_by_cell.items())
    ]


def queue_status(
    queue: WorkQueue,
    store_root: str | None = None,
    now: float | None = None,
) -> dict:
    """One JSON-ready snapshot of a queue's health.

    ``workers`` lists every heartbeat on record with its liveness
    (deadline vs. ``now``), last-heartbeat age, current lease count,
    and — when the worker has published one — its latest telemetry
    counter snapshot (``counters/<owner>.json``).  A worker whose
    heartbeat deadline has lapsed is flagged ``stale`` and excluded
    from the ETA's live-worker count, never silently dropped from the
    listing.  ``eta_seconds`` extrapolates the mean completed-job
    duration over the outstanding work and the number of live workers
    (``None`` until at least one job has finished).  ``expiry_clock``
    and ``max_attempts`` are the settings ``queue.json`` records.  Pass
    ``store_root`` to append the store's manifest rows (shard and
    worker manifests alike).
    """
    now = queue.now() if now is None else now
    counts = queue.counts()
    lease_owners = queue.lease_owners()
    worker_counters = queue.worker_counters()
    workers = []
    live_workers = 0
    for heartbeat in queue.heartbeats():
        owner = heartbeat.get("owner", "?")
        # Judge liveness by the queue's recorded clock: an mtime queue
        # measures heartbeat-file mtimes against the shared
        # filesystem's clock, so a skewed observer box doesn't
        # misreport a live fleet as dead (or vice versa).
        deadline = queue.heartbeat_deadline(owner)
        alive = deadline >= now
        if alive:
            live_workers += 1
        # The deadline is the last renewal plus the recorded TTL, so
        # the renewal's age falls straight out of it.  A heartbeat with
        # no usable deadline (-inf) has neither: null, as for the
        # retired rows of queue_top, never a non-JSON infinity.
        ttl = float(heartbeat.get("ttl", 0.0))
        workers.append(
            {
                "owner": owner,
                "alive": alive,
                "stale": not alive,
                "deadline_in_s": _finite_or_none(deadline - now),
                "heartbeat_age_s": _finite_or_none(now - (deadline - ttl)),
                "leases": lease_owners.get(owner, 0),
                "counters": worker_counters.get(owner),
            }
        )

    done_records = queue.done_records()
    durations = [
        float(record["duration_s"])
        for record in done_records
        if record.get("duration_s") is not None
    ]
    errors = sum(1 for r in done_records if r.get("state") == "error")
    outstanding = counts.pending + counts.leased
    eta_seconds: float | None = None
    if outstanding == 0:
        eta_seconds = 0.0
    elif durations and live_workers > 0:
        # No live workers ⇒ no ETA: extrapolating with a pretend
        # worker would show a dead fleet as converging.
        mean_duration = sum(durations) / len(durations)
        eta_seconds = round(
            mean_duration * outstanding / live_workers, 3
        )

    adaptive = queue.adaptive_payload
    status = {
        "queue": str(queue.root),
        "name": queue.name,
        "spec_hash": queue.spec_hash,
        "scale": queue.spec.scale,
        "engine_version": ENGINE_VERSION,
        "expiry_clock": queue.clock,
        "max_attempts": queue.max_attempts,
        "counts": {
            "jobs": counts.jobs,
            "pending": counts.pending,
            "leased": counts.leased,
            "done": counts.done,
            "errors": errors,
        },
        "drained": counts.drained,
        "workers": workers,
        "eta_seconds": eta_seconds,
        "adaptive": (
            {"enabled": True, **adaptive}
            if adaptive is not None
            else {"enabled": False}
        ),
    }
    if store_root is not None:
        status["manifests"] = manifest_status(load_manifests(store_root))
    return status


def _finite_or_none(seconds: float) -> float | None:
    return round(seconds, 3) if math.isfinite(seconds) else None


def format_queue_status(status: dict) -> str:
    """The human rendering of one :func:`queue_status` payload."""
    counts = status["counts"]
    lines = [
        f"queue: {status['name']}   spec: {status['spec_hash']}   "
        f"scale: {status['scale']}   engine: {status['engine_version']}",
        f"jobs: {counts['jobs']}   pending: {counts['pending']}   "
        f"leased: {counts['leased']}   done: {counts['done']}"
        + (
            f"   errors: {counts['errors']}"
            if counts.get("errors")
            else ""
        )
        + ("   [drained]" if status["drained"] else ""),
    ]
    if status["eta_seconds"] is not None and not status["drained"]:
        lines.append(f"eta: ~{status['eta_seconds']:.0f}s")
    adaptive = status["adaptive"]
    if adaptive["enabled"]:
        lines.append(
            "adaptive: ci_threshold="
            f"{adaptive['ci_threshold']}s   max_seeds="
            f"{adaptive['max_seeds']}   seed_batch="
            f"{adaptive['seed_batch']}"
        )
    if status["workers"]:
        lines.append(f"{'worker':<40} {'alive':>5} {'leases':>6} {'ttl':>8}")
        for worker in status["workers"]:
            deadline_in = worker["deadline_in_s"]
            lines.append(
                f"{worker['owner']:<40} "
                f"{'yes' if worker['alive'] else 'no':>5} "
                f"{worker['leases']:>6} "
                + (
                    f"{deadline_in:>7.0f}s"
                    if deadline_in is not None
                    else f"{'-':>8}"
                )
            )
    for row in status.get("manifests", []):
        source = (
            f"worker {row['worker']}"
            if row.get("worker")
            else f"shard {row['shard_index']}/{row['shard_count']}"
        )
        stale = " (stale)" if row["stale"] else ""
        lines.append(
            f"manifest [{source}]: {row['jobs']} jobs, "
            f"{row['simulated']} simulated, {row['store_hits']} "
            f"store hits{stale}"
        )
    return "\n".join(lines)


def queue_top(
    queue: WorkQueue,
    now: float | None = None,
    previous: dict | None = None,
) -> dict:
    """One frame of the live fleet dashboard (``repro queue top``).

    Builds on :func:`queue_status` — same worker rows, same counts —
    and adds what a *dashboard* needs over a status line: the live
    leases with their ages (a lease aging past the TTL is the first
    visible sign of a wedged worker), and per-worker throughput.  Pass
    the prior frame as ``previous`` and each worker additionally gets
    ``jobs_per_min`` from the counter delta between the two frames;
    single frames (``--once``, the CI smoke) fall back to the
    session-average rate derivable from the counters snapshot alone.

    Everything here is read-side only — safe to poll mid-drain from
    any box that can see the queue directory.
    """
    now = queue.now() if now is None else now
    status = queue_status(queue, store_root=None, now=now)
    # A worker that drained and exited cleanly removes its heartbeat
    # but leaves its counters file; surface those as *retired* rows so
    # a finished fleet still reads as "who did what", not as empty.
    present = {worker["owner"] for worker in status["workers"]}
    for owner, counters in sorted(queue.worker_counters().items()):
        if owner in present:
            continue
        status["workers"].append(
            {
                "owner": owner,
                "alive": False,
                "stale": True,
                "retired": True,
                "deadline_in_s": None,
                "heartbeat_age_s": None,
                "leases": 0,
                "counters": counters,
            }
        )
    # PR 8's heartbeater stamps `heartbeat_lost` into the counters
    # snapshot when a worker's renewal thread missed too many beats;
    # surface it as a first-class flag so the dashboard can shout.
    for worker in status["workers"]:
        counters = worker.get("counters") or {}
        worker["heartbeat_lost"] = bool(counters.get("heartbeat_lost"))
    frame = {
        "time": now,
        "status": status,
        "lease_ages": queue.lease_ages(now),
        "fleet": fleet_state(queue),
    }
    previous_workers = {}
    elapsed = 0.0
    if previous is not None:
        elapsed = now - float(previous.get("time", now))
        previous_workers = {
            worker["owner"]: worker
            for worker in previous.get("status", {}).get("workers", [])
        }
    for worker in status["workers"]:
        counters = worker.get("counters") or {}
        rate: float | None = None
        restarted = False
        before = previous_workers.get(worker["owner"])
        if before is not None and elapsed > 0:
            done_before = (before.get("counters") or {}).get("processed", 0)
            delta = counters.get("processed", 0) - done_before
            if delta < 0:
                # A fleet restart reused this owner name, so its counter
                # file started over from zero and the previous frame's
                # baseline belongs to a dead process.  A negative rate
                # is nonsense; recompute from zero (the fresh session's
                # average) and flag the row so the dashboard says why.
                restarted = True
                if counters.get("busy_s"):
                    rate = (
                        counters.get("processed", 0)
                        / counters["busy_s"]
                        * 60.0
                    )
            else:
                rate = delta / elapsed * 60.0
        elif counters.get("busy_s"):
            # No prior frame: the session average stands in.
            rate = counters.get("processed", 0) / counters["busy_s"] * 60.0
        worker["jobs_per_min"] = rate
        worker["restarted"] = restarted
    return frame


def format_queue_top(frame: dict) -> str:
    """The human rendering of one :func:`queue_top` frame."""
    status = frame["status"]
    counts = status["counts"]
    header = (
        f"queue: {status['name']}   pending: {counts['pending']}   "
        f"leased: {counts['leased']}   done: {counts['done']}"
    )
    if counts.get("errors"):
        header += f"   errors: {counts['errors']}"
    if status["drained"]:
        header += "   [drained]"
    elif status["eta_seconds"] is not None:
        header += f"   eta: ~{status['eta_seconds']:.0f}s"
    lines = [header]

    fleet = frame.get("fleet")
    if fleet and (fleet.get("running") or fleet.get("parked")):
        fleet_line = (
            f"fleet: pid {fleet.get('pid')}   "
            f"slots {fleet.get('count')}   restarts "
            f"{fleet.get('restarts', 0)}/{fleet.get('restart_budget', 0)}"
            f" ({fleet.get('restarts_remaining', 0)} left)"
        )
        if fleet.get("parked"):
            fleet_line += "   [PARKED]"
        elif fleet.get("stale"):
            fleet_line += "   [stale — supervisor silent]"
        lines.append(fleet_line)

    if status["workers"]:
        lines.append(
            f"{'worker':<36} {'alive':>5} {'leases':>6} {'hb-age':>7} "
            f"{'done':>5} {'sim':>5} {'hit':>5} {'fail':>5} "
            f"{'last':>7} {'jobs/m':>7}"
        )
        for worker in status["workers"]:
            counters = worker.get("counters") or {}
            last_job = counters.get("last_job_s")
            rate = worker.get("jobs_per_min")
            heartbeat_age = worker.get("heartbeat_age_s")
            if worker.get("heartbeat_lost"):
                # The worker's own renewal thread reported itself dead
                # — louder than a merely lapsed deadline.
                alive_cell = "LOST"
            elif worker.get("retired"):
                alive_cell = "gone"
            elif worker["alive"]:
                alive_cell = "yes"
            else:
                alive_cell = "NO"
            lines.append(
                f"{worker['owner']:<36} "
                f"{alive_cell:>5} "
                f"{worker['leases']:>6} "
                + (
                    f"{heartbeat_age:>6.0f}s "
                    if heartbeat_age is not None
                    else f"{'-':>7} "
                )
                + f"{counters.get('processed', 0):>5} "
                + f"{counters.get('simulated', 0):>5} "
                + f"{counters.get('store_hits', 0):>5} "
                + f"{counters.get('failed', 0):>5} "
                + (
                    f"{last_job:>6.1f}s "
                    if last_job is not None
                    else f"{'-':>7} "
                )
                + (
                    f"{rate:>6.1f}{'*' if worker.get('restarted') else ' '}"
                    if rate is not None
                    else f"{'-*' if worker.get('restarted') else '-':>7}"
                )
            )
        if any(w.get("restarted") for w in status["workers"]):
            lines.append(
                "* counter file restarted (owner name reused after a "
                "fleet restart); rate is the fresh session's average"
            )
    else:
        lines.append("no workers on record")

    if frame["lease_ages"]:
        lines.append("oldest leases:")
        for lease in frame["lease_ages"][:5]:
            lines.append(
                f"  {lease['id']}  {lease['owner']}  "
                f"{lease['age_s']:.0f}s"
            )
    return "\n".join(lines)


@key_scope()
def queue_report(
    queue: WorkQueue,
    executor: ExperimentExecutor | None = None,
    done_records: list[dict] | None = None,
) -> list[ScenarioMethodSummary]:
    """Summaries over every *completed* cell of the queue.

    Groups the done records by (scenario, method) — whatever seed set
    each scenario ended up with, fixed or adaptively extended — and
    reads the results back through the executor, so a drained queue
    reports without a single new simulation.  Pass ``done_records`` if
    the caller already read them (the CLI shares one scan between the
    header counts and the report).
    """
    executor = executor if executor is not None else get_default_executor()
    if executor.store is None:
        raise ValueError(
            "queue_report needs an executor with a result store — the "
            "report reads completed results back, it must not simulate"
        )
    spec = queue.spec
    # One grouping of done records for the summary table and the
    # figure path alike (queue_cells is the single owner of "which
    # cells count as completed").
    cells = {
        (cell.scenario, cell.method): cell
        for cell in queue_cells(queue, done_records)
    }

    # Refuse a store that doesn't hold the done work: silently
    # re-simulating a completed grid inside a *report* command (a
    # typo'd --cache-dir) would be minutes-to-hours of surprise work.
    missing = sum(
        1
        for cell in cells.values()
        for seed in cell.seeds
        if not executor.store.contains(cell.config, cell.method, seed)
    )
    if missing:
        raise ValueError(
            f"{missing} completed jobs are absent from the store at "
            f"{executor.store.root}; point --cache-dir at the store the "
            "workers actually wrote to"
        )

    summaries: list[ScenarioMethodSummary] = []
    for scenario in spec.scenarios:
        for method in spec.methods:
            cell = cells.get((scenario, method))
            if cell is None:
                continue
            results = executor.run(
                [
                    SimulationJob(cell.config, method, seed)
                    for seed in cell.seeds
                ]
            )
            summaries.append(summarize_cell(scenario, method, results))
    return summaries
