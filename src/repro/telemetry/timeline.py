"""``repro telemetry timeline``: reconstruct a fleet drain.

Consumes a merged event stream (:mod:`repro.telemetry.merge`) and joins
the queue protocol events emitted by the coordinating process with the
executor cell spans and engine run/phase spans emitted inside the
workers — the join key is the trace id that
:meth:`repro.scheduler.queue.WorkQueue.enqueue` mints and every
downstream event carries in ``attrs["trace"]``.

The reconstruction answers the three drain questions directly:

* **where did this job's time go** — each job's claim→ack wall time is
  split into ``execute_s`` (its cell spans) and ``overhead_s``
  (everything else inside the lease: store lookups, protocol I/O,
  scheduling);
* **was the fleet idle or executing** — each worker lane decomposes
  its wall time as ``queue_wait_s + execute_s + idle_s == wall_s``
  *exactly by construction* (queue-wait is lease overhead summed over
  the lane's jobs, idle is the gaps between leases), so the report can
  never silently lose seconds;
* **who was the straggler** — the lane whose last ack ends the drain,
  with its job chain as the critical path.

Per-phase latency quantiles are exact: the inclusive quantiles of the
union of every process's durations of that phase, the rule every
telemetry surface follows (:mod:`repro.telemetry.quantiles`).
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.quantiles import QUANTILE_FIELDS, inclusive_quantile

__all__ = ["drain_timeline", "format_timeline", "timeline_from_path"]

#: Span kinds that must be trace-correlated; anything of these kinds
#: without a resolvable trace counts as an orphan span.
_CORRELATED_KINDS = ("cell", "run", "phase")


def _phase_stats(durations: list[float]) -> dict:
    """Count, total, mean, max and exact quantiles of one phase."""
    total = sum(durations)
    durations = sorted(durations)
    count = len(durations)
    stats = {
        "count": count,
        "total_s": total,
        "mean_s": total / count,
        "max_s": durations[-1],
    }
    for field, q in QUANTILE_FIELDS:
        stats[field] = inclusive_quantile(durations.__getitem__, count, q)
    return stats


def drain_timeline(events: list[dict]) -> dict:
    """Reconstruct the drain carried by ``events`` (a merged stream)."""
    claims: dict[str, list[dict]] = {}
    acks: dict[str, dict] = {}
    cells: dict[str, list[dict]] = {}
    runs: dict[str, int] = {}
    phase_spans: dict[str, int] = {}
    phases: dict[str, list[float]] = {}
    pids: set[int] = set()
    orphans = 0
    considered = 0

    for event in events:
        kind = event["kind"]
        if kind in ("snapshot", "merge"):
            continue
        considered += 1
        pids.add(event["pid"])
        attrs = event.get("attrs") or {}
        trace = attrs.get("trace")
        if kind == "queue":
            if trace is None:
                continue
            if event["name"] == "claim":
                claims.setdefault(trace, []).append(event)
            elif event["name"] == "ack":
                acks[trace] = event
        elif kind in _CORRELATED_KINDS:
            if trace is None:
                orphans += 1
                continue
            if kind == "cell":
                cells.setdefault(trace, []).append(event)
            elif kind == "run":
                runs[trace] = runs.get(trace, 0) + 1
            else:
                phase_spans[trace] = phase_spans.get(trace, 0) + 1
                phases.setdefault(event["name"], []).append(event["dur_s"])

    # A correlated span whose trace no claim ever announced is as
    # orphaned as one with no trace at all.
    for trace in set(cells) | set(runs) | set(phase_spans):
        if trace not in claims:
            orphans += (
                len(cells.get(trace, ()))
                + runs.get(trace, 0)
                + phase_spans.get(trace, 0)
            )

    jobs: list[dict] = []
    for trace, claim_events in sorted(
        claims.items(), key=lambda item: item[1][-1]["t_wall"]
    ):
        claim = claim_events[-1]
        ack = acks.get(trace)
        execute = sum(c["dur_s"] for c in cells.get(trace, ()))
        claim_t = claim["t_wall"]
        ack_t = ack["t_wall"] if ack is not None else None
        wall = (ack_t - claim_t) if ack_t is not None else 0.0
        jobs.append(
            {
                "id": claim["attrs"].get("id"),
                "trace": trace,
                "owner": (ack or claim)["attrs"].get("owner"),
                "state": ack["attrs"].get("state") if ack else "unacked",
                "claim_t": claim_t,
                "ack_t": ack_t,
                "wall_s": wall,
                "execute_s": execute,
                "overhead_s": wall - execute,
                "attempts": len(claim_events),
                "spans": {
                    "cells": len(cells.get(trace, ())),
                    "runs": runs.get(trace, 0),
                    "phases": phase_spans.get(trace, 0),
                },
            }
        )

    workers: dict[str, dict] = {}
    for job in jobs:
        if job["ack_t"] is None:
            continue
        lane = workers.setdefault(
            job["owner"],
            {
                "jobs": 0,
                "first_claim_t": job["claim_t"],
                "last_ack_t": job["ack_t"],
                "busy_s": 0.0,
                "execute_s": 0.0,
            },
        )
        lane["jobs"] += 1
        lane["first_claim_t"] = min(lane["first_claim_t"], job["claim_t"])
        lane["last_ack_t"] = max(lane["last_ack_t"], job["ack_t"])
        lane["busy_s"] += job["wall_s"]
        lane["execute_s"] += job["execute_s"]
    for lane in workers.values():
        wall = lane["last_ack_t"] - lane["first_claim_t"]
        lane["wall_s"] = wall
        # queue_wait + execute + idle == wall, exactly: queue-wait is
        # lease overhead (busy minus execute), idle the rest of the lane.
        lane["queue_wait_s"] = lane["busy_s"] - lane["execute_s"]
        lane["idle_s"] = wall - lane["busy_s"]
        lane["utilization"] = lane["execute_s"] / wall if wall > 0 else 0.0
        del lane["busy_s"]

    acked = [job for job in jobs if job["ack_t"] is not None]
    started = min((job["claim_t"] for job in jobs), default=0.0)
    finished = max((job["ack_t"] for job in acked), default=started)
    critical: dict = {}
    if acked and workers:
        straggler = max(workers, key=lambda o: workers[o]["last_ack_t"])
        chain = [job for job in acked if job["owner"] == straggler]
        longest = max(acked, key=lambda job: job["wall_s"])
        critical = {
            "straggler": straggler,
            "ends_t": workers[straggler]["last_ack_t"],
            "jobs": [job["id"] for job in chain],
            "chain_s": sum(job["wall_s"] for job in chain),
            "longest_job": {
                "id": longest["id"],
                "owner": longest["owner"],
                "wall_s": longest["wall_s"],
                "execute_s": longest["execute_s"],
            },
        }

    return {
        "drain": {
            "events": considered,
            "processes": len(pids),
            "jobs": len(jobs),
            "acked": len(acked),
            "unacked": len(jobs) - len(acked),
            "workers": len(workers),
            "started_t": started,
            "finished_t": finished,
            "wall_s": finished - started,
            "orphan_spans": orphans,
        },
        "workers": {owner: workers[owner] for owner in sorted(workers)},
        "jobs": jobs,
        "critical_path": critical,
        "phases": {
            name: _phase_stats(phases[name]) for name in sorted(phases)
        },
    }


def timeline_from_path(path: Path | str) -> dict:
    """Timeline of a merged file, an events file, or a telemetry dir."""
    from repro.telemetry.merge import load_stream

    return drain_timeline(load_stream(path))


def _fmt_s(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 100:
        return f"{seconds:.0f}s"
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def format_timeline(timeline: dict) -> str:
    """Human-readable drain report (tables; one string, no trailing \\n)."""
    drain = timeline["drain"]
    lines = [
        "fleet drain timeline",
        f"  jobs {drain['jobs']} ({drain['acked']} acked)"
        f"  workers {drain['workers']}"
        f"  processes {drain['processes']}"
        f"  wall {_fmt_s(drain['wall_s'])}"
        f"  orphan spans {drain['orphan_spans']}",
        "",
        "  worker lanes (queue-wait + execute + idle = wall)",
        "    worker                jobs     wall   q-wait  execute"
        "     idle  util",
    ]
    for owner, lane in timeline["workers"].items():
        lines.append(
            f"    {owner:<20} {lane['jobs']:>5}"
            f" {_fmt_s(lane['wall_s']):>8}"
            f" {_fmt_s(lane['queue_wait_s']):>8}"
            f" {_fmt_s(lane['execute_s']):>8}"
            f" {_fmt_s(lane['idle_s']):>8}"
            f" {lane['utilization'] * 100:>4.0f}%"
        )
    critical = timeline["critical_path"]
    if critical:
        longest = critical["longest_job"]
        lines += [
            "",
            f"  straggler {critical['straggler']}"
            f" (chain {_fmt_s(critical['chain_s'])}"
            f" over {len(critical['jobs'])} jobs)",
            f"  longest job {longest['id']} on {longest['owner']}"
            f" ({_fmt_s(longest['wall_s'])} wall,"
            f" {_fmt_s(longest['execute_s'])} execute)",
        ]
    if timeline["jobs"]:
        lines += [
            "",
            "  jobs (by claim order)",
            "    job                                   owner"
            "                 wall  execute overhead  state",
        ]
        for job in timeline["jobs"]:
            lines.append(
                f"    {str(job['id']):<37} {str(job['owner']):<20}"
                f" {_fmt_s(job['wall_s']):>8}"
                f" {_fmt_s(job['execute_s']):>8}"
                f" {_fmt_s(job['overhead_s']):>8}"
                f"  {job['state']}"
            )
    if timeline["phases"]:
        lines += [
            "",
            "  engine phases (exact quantiles over every process)",
            "    phase                count    total     p50     p90"
            "     p99     max",
        ]
        for name, stats in timeline["phases"].items():
            lines.append(
                f"    {name:<20} {stats['count']:>6}"
                f" {_fmt_s(stats['total_s']):>8}"
                f" {_fmt_s(stats['p50_s']):>7}"
                f" {_fmt_s(stats['p90_s']):>7}"
                f" {_fmt_s(stats['p99_s']):>7}"
                f" {_fmt_s(stats['max_s']):>7}"
            )
    return "\n".join(lines)
