"""Read-side aggregation of a telemetry run directory.

A run directory holds one ``events-*.jsonl`` file per participating
process (serial runs: one file; pool or fleet drains: several).  The
report walks every verified event, totals the per-phase engine spans,
merges the trailing registry snapshots, and derives the cache-efficacy
table the ISSUE asks for — candidate-cache hit rate, result-store hit
rate, and the ring-log fast-path share.

Merging notes: counters and timers merge exactly across processes.
A timer's snapshot carries its log-bucket histogram, and merged timers
add bucket counts, so their p50/p90/p99 are the inclusive quantiles of
the union of every process's observations, to within half a bucket
(:mod:`repro.telemetry.quantiles`).  Timers from snapshots written
before histograms existed merge their count, total, min and max, with
quantiles ``None``.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.events import read_events_dir
from repro.telemetry.registry import TimerStats

__all__ = [
    "aggregate_events",
    "format_telemetry_report",
    "telemetry_report",
]

#: Engine phases in hot-path order; the report lists them this way.
PHASE_ORDER = (
    "arrival",
    "candidate_lookup",
    "scoring",
    "ranking",
    "log_push",
)


def _timer_row(timer: TimerStats) -> dict:
    """A merged timer's report row: its snapshot without the buckets."""
    row = timer.snapshot()
    del row["buckets"]
    return row


def _rate(hits: float, misses: float) -> float | None:
    total = hits + misses
    return hits / total if total else None


def telemetry_report(run_dir: Path | str) -> dict:
    """Aggregate one telemetry run directory into a JSON-ready report."""
    report = aggregate_events(read_events_dir(run_dir))
    report["run_dir"] = str(Path(run_dir))
    return report


def aggregate_events(events: list[dict]) -> dict:
    """Aggregate an event list (directory walk or merged stream).

    The ops bundle feeds a merged stream through the same aggregation
    the directory report uses, so both surfaces always agree.
    """
    phases: dict[str, float] = {}
    spans = {"run": 0, "cell": 0}
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    timers: dict[str, TimerStats] = {}
    processes: set[int] = set()

    for event in events:
        kind = event["kind"]
        if kind == "merge":
            continue
        processes.add(event["pid"])
        if kind == "phase":
            name = event["name"]
            phases[name] = phases.get(name, 0.0) + event["dur_s"]
        elif kind in spans:
            spans[kind] += 1
        elif kind == "snapshot":
            attrs = event["attrs"]
            for name, value in attrs.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            # Gauges are last-value; across processes keep the max
            # (they record sizes, not instants, everywhere we set them).
            for name, value in attrs.get("gauges", {}).items():
                gauges[name] = max(gauges.get(name, value), value)
            for name, snapshot in attrs.get("timers", {}).items():
                timers.setdefault(name, TimerStats()).merge(snapshot)

    phase_total = sum(phases.values())
    phase_rows = [
        {
            "phase": name,
            "total_s": phases[name],
            "share": phases[name] / phase_total if phase_total else 0.0,
        }
        for name in (
            *(p for p in PHASE_ORDER if p in phases),
            *sorted(p for p in phases if p not in PHASE_ORDER),
        )
    ]

    caches = {
        "candidate_cache": {
            "hits": counters.get("engine.candidate_cache_hits", 0),
            "misses": counters.get("engine.candidate_cache_misses", 0),
            "hit_rate": _rate(
                counters.get("engine.candidate_cache_hits", 0),
                counters.get("engine.candidate_cache_misses", 0),
            ),
        },
        "result_store": {
            "hits": counters.get("store.hits", 0),
            "misses": counters.get("store.misses", 0),
            "hit_rate": _rate(
                counters.get("store.hits", 0),
                counters.get("store.misses", 0),
            ),
        },
        "ring_push": {
            "uniform": counters.get("engine.ring_uniform_pushes", 0),
            "scattered": counters.get("engine.ring_scattered_pushes", 0),
            "scalar": counters.get("engine.ring_scalar_pushes", 0),
            "fast_path_share": _rate(
                counters.get("engine.ring_uniform_pushes", 0),
                counters.get("engine.ring_scattered_pushes", 0)
                + counters.get("engine.ring_scalar_pushes", 0),
            ),
        },
    }

    return {
        "events": sum(1 for e in events if e["kind"] != "merge"),
        "processes": len(processes),
        "runs": spans["run"],
        "cells": spans["cell"],
        "phases": phase_rows,
        "caches": caches,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "timers": {
            name: _timer_row(timer) for name, timer in sorted(timers.items())
        },
    }


def _fmt_seconds(seconds: float | None) -> str:
    if seconds is None or seconds != seconds:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


def _fmt_rate(rate: float | None) -> str:
    return "-" if rate is None else f"{rate * 100.0:5.1f}%"


def format_telemetry_report(report: dict) -> str:
    """Human-readable rendering of :func:`telemetry_report`."""
    lines = [
        f"telemetry: {report['run_dir']}",
        f"  events {report['events']}  processes {report['processes']}  "
        f"runs {report['runs']}  cells {report['cells']}",
    ]

    if report["phases"]:
        lines.append("  phase breakdown:")
        width = max(len(row["phase"]) for row in report["phases"])
        for row in report["phases"]:
            lines.append(
                f"    {row['phase']:<{width}}  "
                f"{_fmt_seconds(row['total_s']):>10}  "
                f"{row['share'] * 100.0:5.1f}%"
            )

    caches = report["caches"]
    lines.append("  cache efficacy:")
    candidate = caches["candidate_cache"]
    lines.append(
        f"    candidate cache  hit {_fmt_rate(candidate['hit_rate'])}  "
        f"({candidate['hits']:.0f} hit / {candidate['misses']:.0f} miss)"
    )
    store = caches["result_store"]
    lines.append(
        f"    result store     hit {_fmt_rate(store['hit_rate'])}  "
        f"({store['hits']:.0f} hit / {store['misses']:.0f} miss)"
    )
    ring = caches["ring_push"]
    lines.append(
        f"    ring push        fast {_fmt_rate(ring['fast_path_share'])}  "
        f"({ring['uniform']:.0f} uniform / {ring['scattered']:.0f} "
        f"scattered / {ring['scalar']:.0f} scalar)"
    )

    if report["timers"]:
        lines.append("  timers:")
        width = max(len(name) for name in report["timers"])
        for name, timer in report["timers"].items():
            lines.append(
                f"    {name:<{width}}  n={timer['count']:<8.0f}"
                f"mean {_fmt_seconds(timer['mean_s']):>10}  "
                f"p50 {_fmt_seconds(timer['p50_s']):>10}  "
                f"p99 {_fmt_seconds(timer['p99_s']):>10}  "
                f"max {_fmt_seconds(timer['max_s']):>10}"
            )

    interesting = [
        (name, value)
        for name, value in report["counters"].items()
        if not name.startswith(
            ("engine.candidate_cache", "engine.ring_", "store.hits",
             "store.misses")
        )
    ]
    if interesting:
        lines.append("  counters:")
        width = max(len(name) for name, _ in interesting)
        for name, value in interesting:
            lines.append(f"    {name:<{width}}  {value:.0f}")

    return "\n".join(lines)
