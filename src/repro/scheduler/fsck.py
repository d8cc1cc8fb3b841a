"""``repro queue fsck``: audit a queue directory against its invariants.

The queue's documented protocol implies a small set of on-disk
invariants — every live lease is covered by a heartbeat, a done record
always wins over leases and tickets, a job is never simultaneously
pending and leased, a ticket never exists without its job record, and
every record parses.  Crashes at the wrong instant (which the failpoint
chaos harness injects on purpose) can violate any of them; the running
protocol *self-heals* most violations opportunistically, but nothing
before this module could check a quiescent queue end-to-end and say
"consistent" or list exactly what is wrong.

:func:`fsck_queue` is that checker.  With ``repair=True`` it applies
**only** repairs the protocol itself already defines — requeue an
uncovered lease through the attempts budget, discard state that lost to
a done record, re-ticket a stranded job, rewrite a torn ticket, prune
unservable store halves — never anything that invents new state or
deletes a result.  Violations it cannot repair stay in the report and
the CLI exits non-zero.

Severity model: a violation is *not* necessarily data loss.  An
uncovered lease, a stranded job, or an orphan store half are exactly
the footprints the protocol documents for specific crash windows; fsck
exists so they are found and repaired deliberately instead of lingering
until the next scavenger happens by (or forever, for store orphans).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro._io import crash_litter
from repro.experiments.store import ResultStore
from repro.scheduler.queue import (
    _LEASE_SEPARATOR,
    _live_entries,
    _read_json,
    _write_json,
    DEFAULT_MAX_ATTEMPTS,
    WorkQueue,
)

__all__ = ["FsckReport", "Violation", "fsck_queue"]

#: Crash litter younger than this (seconds) may belong to a live
#: writer and is never flagged — the same grace :meth:`WorkQueue.gc`
#: applies, so an fsck pass over an actively draining (or actively
#: chaos-injected) queue stays clean.
DEFAULT_TEMP_AGE = 3600.0


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach found on disk.

    ``repair`` names the protocol-defined repair for this breach;
    ``repaired`` records whether this pass applied it.
    """

    kind: str
    subject: str
    detail: str
    repair: str
    repaired: bool = False

    def payload(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FsckReport:
    """Everything one :func:`fsck_queue` pass found (and fixed)."""

    violations: tuple[Violation, ...]
    checked: dict[str, int]
    repair: bool

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def unrepaired(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if not v.repaired)

    def payload(self) -> dict:
        return {
            "clean": self.clean,
            "repair": self.repair,
            "checked": dict(self.checked),
            "violations": [v.payload() for v in self.violations],
            "unrepaired": len(self.unrepaired),
        }


def fsck_queue(
    queue: WorkQueue,
    store: ResultStore | None = None,
    repair: bool = False,
    now: float | None = None,
    temp_age: float = DEFAULT_TEMP_AGE,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    audit_root: Path | str | None = None,
) -> FsckReport:
    """Check ``queue`` (and optionally ``store``) against the protocol
    invariants; with ``repair`` apply the protocol-defined self-repairs.

    ``now`` overrides the queue's clock (tests); ``temp_age`` gates how
    old crash litter must be before it counts.

    Checks, in evaluation order (earlier repairs can obviate later
    findings — e.g. a lease discarded under done-wins is no longer an
    uncovered lease):

    1.  **torn heartbeat** — unreadable ``heartbeats/*.json``; prune
        (its owner's leases then fall under the uncovered-lease rule).
    2.  **torn job record** — ``jobs/<id>.json`` present but
        unreadable; park the job as a ``done/`` error record and
        discard its ticket/lease (without a readable description the
        cell can never run).
    3.  **done-wins** — a lease or ticket whose job already has a done
        record; discard it.
    4.  **pending-and-leased** — one job both pending and leased; the
        lease is the live claim, the ticket is phantom: discard ticket.
    5.  **orphan ticket / orphan lease** — live state whose job record
        file does not exist (torn enqueue, or litter from a foreign
        queue); discard.
    6.  **torn ticket** — unreadable ``pending/<id>``; rewrite with a
        fresh ``{"attempts": 0}`` (the budget restarts — conservative,
        but a torn counter cannot be trusted in either direction).
    7.  **bad attempts** — readable ticket whose ``attempts`` is not a
        non-negative integer; rewrite with ``{"attempts": 0}``.
    8.  **uncovered lease** — lease whose owner's heartbeat is missing
        or past its deadline; requeue through the normal attempts
        budget (parks as an error record once the budget is spent).
    9.  **torn done record** — unreadable ``done/<id>.json``; unlink
        it and re-ticket the job (the at-least-once contract makes the
        re-run safe; a store hit makes it cheap).
    10. **stranded job** — a job record with no ticket, lease, or done
        record; re-ticket.
    11. **stale temp** — crash litter (every footprint
        :func:`repro._io.crash_litter` declares) older than
        ``temp_age``; prune.  ``audit_root`` adds the audit shard
        directory to the sweep.  A store payload without its metadata
        is left to 12.
    12. **store orphans / unreadable entries** — via
        :meth:`ResultStore.verify`, at any age; prune (none can serve
        as a hit).  Each finding is reported once, under the same kind
        with and without ``repair``.
    """
    now = queue.now() if now is None else now
    violations: list[Violation] = []

    def note(
        kind: str, subject: str, detail: str, repair_name: str,
        repaired: bool,
    ) -> None:
        violations.append(
            Violation(
                kind=kind,
                subject=subject,
                detail=detail,
                repair=repair_name,
                repaired=repaired,
            )
        )

    # -- 1: heartbeats must parse -------------------------------------
    heartbeat_paths = sorted(queue.heartbeats_dir.glob("*.json"))
    for path in heartbeat_paths:
        record = _read_json(path)
        if record is not None and "deadline" in record:
            continue
        fixed = False
        if repair:
            path.unlink(missing_ok=True)
            fixed = True
        note(
            "torn-heartbeat",
            path.stem,
            "heartbeat file is unreadable or lacks a deadline",
            "prune",
            fixed,
        )

    # -- snapshot live state ------------------------------------------
    job_paths = sorted(queue.jobs_dir.glob("*.json"))
    tickets = {path.name: path for path in _live_entries(queue.pending_dir)}
    leases: dict[str, list[tuple[Path, str]]] = {}
    for path in _live_entries(queue.leases_dir):
        identifier, sep, owner = path.name.partition(_LEASE_SEPARATOR)
        if sep:
            leases.setdefault(identifier, []).append((path, owner))
    done_ids = {path.stem for path in queue.done_dir.glob("*.json")}

    # -- 2: job records must parse when live state depends on them ----
    torn_jobs: set[str] = set()
    for path in job_paths:
        if _read_json(path) is not None:
            continue
        identifier = path.stem
        torn_jobs.add(identifier)
        fixed = False
        if repair:
            _write_json(
                queue.done_dir / f"{identifier}.json",
                {
                    "id": identifier,
                    "state": "error",
                    "error": "fsck: job record unreadable",
                    "owner": "fsck",
                    "attempts": 0,
                },
                exclusive=True,
            )
            ticket = tickets.pop(identifier, None)
            if ticket is not None:
                ticket.unlink(missing_ok=True)
            for lease_path, _ in leases.pop(identifier, []):
                lease_path.unlink(missing_ok=True)
            done_ids.add(identifier)
            fixed = True
        note(
            "torn-job-record",
            identifier,
            "job record exists but cannot be parsed; the cell can "
            "never run",
            "park",
            fixed,
        )

    # -- 3: done wins over tickets and leases -------------------------
    for identifier in sorted(set(leases) & done_ids):
        for lease_path, owner in leases.pop(identifier):
            fixed = False
            if repair:
                lease_path.unlink(missing_ok=True)
                fixed = True
            note(
                "done-wins-lease",
                identifier,
                f"lease held by {owner} for a job that already has a "
                "done record",
                "discard-lease",
                fixed,
            )
    for identifier in sorted(set(tickets) & done_ids):
        fixed = False
        if repair:
            tickets[identifier].unlink(missing_ok=True)
            del tickets[identifier]
            fixed = True
        note(
            "done-wins-ticket",
            identifier,
            "pending ticket for a job that already has a done record",
            "discard-ticket",
            fixed,
        )

    # -- 4: a job is never pending and leased at once -----------------
    for identifier in sorted(set(tickets) & set(leases)):
        fixed = False
        if repair:
            tickets[identifier].unlink(missing_ok=True)
            del tickets[identifier]
            fixed = True
        note(
            "pending-and-leased",
            identifier,
            "job has both a pending ticket and a live lease; the "
            "lease is the real claim",
            "discard-ticket",
            fixed,
        )

    # -- 5: live state requires a job record --------------------------
    job_ids = {path.stem for path in job_paths}
    for identifier in sorted(set(tickets) - job_ids):
        fixed = False
        if repair:
            tickets[identifier].unlink(missing_ok=True)
            del tickets[identifier]
            fixed = True
        note(
            "orphan-ticket",
            identifier,
            "pending ticket with no job record",
            "discard-ticket",
            fixed,
        )
    for identifier in sorted(set(leases) - job_ids):
        for lease_path, owner in leases.pop(identifier):
            fixed = False
            if repair:
                lease_path.unlink(missing_ok=True)
                fixed = True
            note(
                "orphan-lease",
                identifier,
                f"lease held by {owner} with no job record",
                "discard-lease",
                fixed,
            )

    # -- 6/7: tickets must parse and carry a sane attempts budget -----
    for identifier in sorted(tickets):
        payload = _read_json(tickets[identifier])
        if payload is None:
            fixed = False
            if repair:
                _write_json(tickets[identifier], {"attempts": 0})
                fixed = True
            note(
                "torn-ticket",
                identifier,
                "pending ticket cannot be parsed",
                "rewrite-ticket",
                fixed,
            )
            continue
        attempts = payload.get("attempts")
        if not isinstance(attempts, int) or attempts < 0:
            fixed = False
            if repair:
                _write_json(tickets[identifier], {"attempts": 0})
                fixed = True
            note(
                "bad-attempts",
                identifier,
                f"ticket attempts counter is {attempts!r}, expected a "
                "non-negative integer",
                "rewrite-ticket",
                fixed,
            )

    # -- 8: every lease needs a live heartbeat ------------------------
    for identifier in sorted(leases):
        for lease_path, owner in leases[identifier]:
            deadline = queue.heartbeat_deadline(owner)
            if deadline >= now:
                continue
            fixed = False
            outcome = ""
            if repair:
                outcome = queue._retry_or_park(
                    lease_path,
                    identifier,
                    owner,
                    f"fsck: lease not covered by a live heartbeat "
                    f"(owner {owner})",
                    max_attempts,
                )
                fixed = outcome in ("requeued", "error", "gone")
            note(
                "uncovered-lease",
                identifier,
                f"lease held by {owner} whose heartbeat is missing or "
                "expired"
                + (f" (repair outcome: {outcome})" if outcome else ""),
                "requeue",
                fixed,
            )

    # -- 9: done records must parse -----------------------------------
    for path in sorted(queue.done_dir.glob("*.json")):
        if _read_json(path) is not None:
            continue
        identifier = path.stem
        fixed = False
        if repair:
            path.unlink(missing_ok=True)
            done_ids.discard(identifier)
            if (
                identifier in job_ids
                and identifier not in torn_jobs
                and identifier not in leases
            ):
                _write_json(queue.pending_dir / identifier, {"attempts": 0})
            fixed = True
        note(
            "torn-done-record",
            identifier,
            "done record cannot be parsed; the completion it claims "
            "is unverifiable",
            "reticket",
            fixed,
        )

    # -- 10: stranded jobs (recompute after the repairs above) --------
    live = (
        {p.name for p in _live_entries(queue.pending_dir)}
        | {
            p.name.partition(_LEASE_SEPARATOR)[0]
            for p in _live_entries(queue.leases_dir)
        }
        | {p.stem for p in queue.done_dir.glob("*.json")}
    )
    for identifier in sorted(job_ids - live - torn_jobs):
        fixed = False
        if repair:
            _write_json(queue.pending_dir / identifier, {"attempts": 0})
            fixed = True
        note(
            "stranded-job",
            identifier,
            "job record with no ticket, lease, or done record — "
            "nothing will ever run it",
            "reticket",
            fixed,
        )

    # -- 11: aged crash litter ----------------------------------------
    directories = list(queue.directories)
    if store is not None:
        directories.append(store.root)
    if audit_root is not None:
        directories.append(Path(audit_root))
    for path in crash_litter(directories, now, temp_age):
        if (
            store is not None
            and path.parent == store.root
            and path.suffix == ".npz"
        ):
            continue  # a store orphan: check 12 reports it, at any age
        fixed = False
        if repair:
            path.unlink(missing_ok=True)
            fixed = True
        note(
            "stale-temp",
            str(path),
            "orphaned atomic-write temporary (crashed writer litter)",
            "prune",
            fixed,
        )

    # -- 12: the store's halves must pair and parse -------------------
    store_entries = 0
    if store is not None:
        store_report = store.verify(deep=True)
        store_entries = store_report.entries
        store_fixed = False
        if repair and not store_report.clean:
            store.prune_invalid(store_report)
            store_fixed = True
        for key in store_report.orphan_npz:
            note(
                "store-orphan-npz",
                key,
                "payload half with no metadata half (interrupted put; "
                "never visible as a hit)",
                "prune",
                store_fixed,
            )
        for key in store_report.orphan_json:
            note(
                "store-orphan-json",
                key,
                "metadata half with no payload half (write order "
                "violated or payload deleted)",
                "prune",
                store_fixed,
            )
        for key in store_report.unreadable:
            note(
                "store-unreadable",
                key,
                "entry pair exists but cannot be read end-to-end",
                "prune",
                store_fixed,
            )

    checked = {
        "jobs": len(job_paths),
        "pending": len(_live_entries(queue.pending_dir)),
        "leases": len(_live_entries(queue.leases_dir)),
        "done": sum(1 for _ in queue.done_dir.glob("*.json")),
        "heartbeats": len(heartbeat_paths),
        "store_entries": store_entries,
    }
    return FsckReport(
        violations=tuple(violations), checked=checked, repair=repair
    )
