"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload engine_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; everything before it is a human-readable report.  The full
result, with run provenance and, for traced runs, every span record,
is written to ``.perfbench_out/``.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run, spread evenly over it; ``setup_s`` is their median.
SETUP_REPEATS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path and import from it.

    Refuses to run against any other copy of the program: a benchmark
    that silently measured an installed package would compare the wrong
    code.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def provenance(args, pool: int) -> dict:
    import numpy
    from repro.simulation.engine import ENGINE_VERSION

    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "pool_workers": pool,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end_metrics(setup_times, outcomes) -> dict:
    """Each step's fastest sample over the run's passes.

    A rate is the served queries of a pass's simulations over the sum
    of each simulation's least CPU seconds; ``read_s`` sums each read
    phase's least.  The host a run shares changes speed by up to 2x in
    stretches of seconds, for its own reasons; the work a step does
    has a floor, and the fastest of many short samples finds it, while
    a median moves with the share of the run the host spent slow.
    """
    timings = [o["timings"] for o in outcomes]

    def rate(source):
        steps = timings[0][source]
        served = sum(steps[name][0] for name in steps)
        return served / sum(
            min(s for t in timings for s in t[source][name][1]) for name in steps
        )

    read_s = sum(
        min(s for t in timings for s in t["read"][phase])
        for phase in timings[0]["read"]
    )
    return {
        "live_qps": (rate("live"), "1/s"),
        "replay_qps": (rate("replay"), "1/s"),
        "read_s": (read_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer_metrics(tracer, traced, untraced, job_durations, pool) -> dict:
    from spans import layer_sums, phase_rollup, wall_breakdown

    acc = {}
    for source in (tracer.acc, tracer.child_acc):
        for key, (total, self_s, calls) in source.items():
            record = acc.setdefault(key, [0.0, 0.0, 0])
            record[0] += total
            record[1] += self_s
            record[2] += calls
    sums = layer_sums(acc)
    counts = tracer.counts + tracer.child_counts

    def total(*layers):
        return sum(sums.get(layer, (0.0,))[0] for layer in layers)

    def calls(layer):
        return sums.get(layer, (0.0, 0.0, 0))[2]

    def per_query(seconds, served):
        return seconds * 1e6 / served if served else 0.0

    def per_call_ms(layer):
        return total(layer) * 1e3 / calls(layer) if calls(layer) else 0.0

    served = counts["served"]
    issued = counts["issued"]
    methods = ("sqlb", "capacity", "mariposa")
    breakdown, wall = wall_breakdown(tracer.acc)
    phases = phase_rollup(sums)
    cold_s = sum(o["timings"].get("cold_wall", 0.0) for o in traced)
    cold_wait = sum(
        record[0]
        for (job, _, layer), record in tracer.acc.items()
        if job == "cold" and layer == "executor.wait"
    )
    worker_s = total("queue.worker")
    quantiles = (
        statistics.quantiles([d * 1e3 for d in job_durations], n=10, method="inclusive")
        if len(job_durations) >= 2
        else [0.0] * 9
    )
    metrics = {
        "queries.create_us": (per_query(total("queries.create"), counts["served.live"]), "us"),
        "queries.create_traced_us": (per_query(total("queries.create_traced"), counts["served.replay"]), "us"),
        "matchmaking.calls": (calls("matchmaking.candidates"), "count"),
        "engine.candidate_hit_ratio": (1.0 - calls("matchmaking.candidates") / issued if issued else 0.0, "ratio"),
        "intentions.provider_us": (per_query(total("intentions.provider"), served), "us"),
        "preferences.draw_us": (per_query(total("preferences.draw"), served), "us"),
        "participants.sat_read_us": (per_query(total("participants.sat_read"), served), "us"),
        **{
            f"allocation.{m}_us": (per_query(total(f"allocation.{m}"), counts[f"served.{m}"]), "us")
            for m in methods
        },
        "participants.record_query_us": (per_query(total("participants.record_query"), served), "us"),
        "participants.record_proposals_us": (per_query(total("participants.record_proposals"), served), "us"),
        **{
            f"memory.pushes_{kind}": (counts[f"memory.pushes_{kind}"], "count")
            for kind in ("uniform", "scattered", "scalar")
        },
        "memory.view_rebuilds": (counts["memory.view_rebuilds"], "count"),
        "queueing.us": (per_query(total("queueing.assign", "queueing.response_time", "queueing.backlog"), served), "us"),
        "utilization.us": (per_query(total("utilization.advance", "utilization.of", "utilization.assign"), served), "us"),
        "departures.check_ms": (per_call_ms("departures.check"), "ms"),
        "departures.count": (counts["departures.count"], "count"),
        "trace.load_ms": (per_call_ms("trace.load"), "ms"),
        "engine.self_us": (per_query(sums.get("engine.run", (0.0, 0.0))[1], served), "us"),
        **{
            f"phase.{name}_us": (per_query(seconds, served), "us")
            for name, seconds in phases.items()
        },
        "executor.pool_busy_frac": (sum(tracer.child_walls) / (pool * cold_s) if cold_s else 0.0, "ratio"),
        "executor.parent_s": ((cold_s - cold_wait) / len(traced), "s"),
        "store.put_ms": (per_call_ms("store.put"), "ms"),
        "store.put_bytes": (counts["store.put_bytes"] / calls("store.put") if calls("store.put") else 0.0, "B"),
        "store.get_ms": (per_call_ms("store.get"), "ms"),
        "store.get_hit_ratio": (counts["store.get_hits"] / calls("store.get") if calls("store.get") else 0.0, "ratio"),
        "store.load_series_ms": (per_call_ms("store.load_series"), "ms"),
        "sweeps.manifest_write_ms": (per_call_ms("sweeps.manifest_write"), "ms"),
        "sweeps.manifest_cells_ms": (
            total("sweeps.manifest_cells") * 1e3 / calls("analysis.cells") if calls("analysis.cells") else 0.0, "ms"
        ),
        "aggregate.summary_self_s": (
            sums["aggregate.summary"][1] / calls("aggregate.summary") if calls("aggregate.summary") else 0.0, "s"
        ),
        "queue.claim_ms": (per_call_ms("queue.claim"), "ms"),
        "queue.ack_ms": (per_call_ms("queue.ack"), "ms"),
        "queue.heartbeat_calls": (calls("queue.heartbeat") + counts["queue.heartbeat.untraced_calls"], "count"),
        "queue.scavenge_ms": (per_call_ms("queue.scavenge"), "ms"),
        "queue.counters_ms": (per_call_ms("queue.counters"), "ms"),
        "queue.job_ms_p50": (quantiles[4], "ms"),
        "queue.job_ms_p90": (quantiles[8], "ms"),
        "queue.job_samples": (len(job_durations), "count"),
        "queue.protocol_frac": (1.0 - sum(job_durations) / worker_s if worker_s else 0.0, "ratio"),
        "analysis.cells_ms": (per_call_ms("analysis.cells"), "ms"),
        "analysis.payload_ms": (per_call_ms("analysis.payload"), "ms"),
        "analysis.bytes": (counts["analysis.bytes"] / calls("analysis.bytes") if calls("analysis.bytes") else 0.0, "B"),
        "tracing.coverage": (1.0 - breakdown.get("unattributed", 0.0) / wall if wall else 0.0, "ratio"),
        "tracing.overhead_frac": (
            statistics.median(o["wall"] for o in traced) / statistics.median(o["wall"] for o in untraced) - 1.0,
            "ratio",
        ),
    }
    return metrics, breakdown, wall, phases, sums


def run_passes(workload, args, checks, pinned, tracer):
    """Set-ups and measured passes until ``--seconds`` of pass time is
    spent.

    An iteration starts with a fresh set-up whenever another
    ``1 / SETUP_REPEATS`` of the run has gone by since the last one, so
    the set-ups sample the whole run as the passes do; a run of few
    iterations makes up the rest at its end.  With a tracer, each
    iteration is an untraced pass followed by a traced one, and both
    must produce the same outputs.
    """
    from workloads import cpu_seconds

    setup_times = []

    def set_up():
        started = cpu_seconds()
        workload.setup(len(setup_times))
        setup_times.append(cpu_seconds() - started)

    untraced, traced = [], []
    reference = None
    spent = 0.0
    index = 0
    while spent < args.seconds:
        if len(setup_times) * args.seconds <= spent * SETUP_REPEATS:
            set_up()
        modes = (False,) if tracer is None else (False, True)
        for traced_pass in modes:
            pass_dir = workload.work_dir / f"pass-{index}"
            index += 1
            if traced_pass:
                tracer.install()
                try:
                    with tracer.root() as frame:
                        outcome = workload.run_pass(tracer, pass_dir)
                finally:
                    tracer.uninstall()
                outcome["wall"] = frame.wall
            else:
                started = perf_counter()
                outcome = workload.run_pass(None, pass_dir)
                outcome["wall"] = perf_counter() - started
            spent += outcome["wall"]
            fingerprints = workload.verify(outcome, pinned)
            if reference is None:
                reference = fingerprints
            else:
                what = "traced vs untraced" if traced_pass else "pass vs first pass"
                checks.equal(fingerprints, reference, f"outputs, {what}")
            if traced_pass and hasattr(workload, "job_durations"):
                outcome["job_durations"] = workload.job_durations(outcome)
            for key in ("results", "replayed", "cold", "cold_report", "read"):
                outcome.pop(key, None)
            shutil.rmtree(pass_dir, ignore_errors=True)
            (traced if traced_pass else untraced).append(outcome)
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    workload.check_setup()
    return untraced, traced, reference, setup_times


def report_breakdown(breakdown, wall, phases, sums, tracer) -> list[str]:
    lines = [f"# traced wall {wall:.4f} s, parent-process self time by layer:"]
    for layer, seconds in sorted(breakdown.items(), key=lambda item: -item[1]):
        lines.append(f"#   {layer:<32} {seconds:10.4f} s {100 * seconds / wall:6.2f} %")
    lines.append(f"#   {'sum':<32} {sum(breakdown.values()):10.4f} s")
    engine_s = sums.get("engine.run", (0.0,))[0]
    if engine_s:
        lines.append(f"# engine time {engine_s:.4f} s (all processes) by phase:")
        for name, seconds in phases.items():
            lines.append(f"#   phase.{name:<26} {seconds:10.4f} s {100 * seconds / engine_s:6.2f} %")
    if tracer.child_walls:
        lines.append(
            f"# pool children: {len(tracer.child_walls)} jobs, {sum(tracer.child_walls):.4f} s simulated"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from spans import Tracer
    from workloads import WORKLOADS, Checks, load_pinned

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    pool = min(2, len(os.sched_getaffinity(0)))
    checks = Checks()
    pinned = load_pinned(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir, checks, pool)
    tracer = Tracer() if args.trace else None
    try:
        untraced, traced, outputs, setup_times = run_passes(workload, args, checks, pinned, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = []
    result = {}
    if tracer is None:
        metrics = end_to_end_metrics(setup_times, untraced)
    else:
        metrics, breakdown, wall, phases, sums = per_layer_metrics(
            tracer, traced, untraced,
            [d for o in traced for d in o.get("job_durations", ())], pool,
        )
        parts = sum(breakdown.values())
        checks.check(abs(parts - wall) <= 1e-9 * wall, f"layer times sum to {parts!r}, traced wall {wall!r}")
        engine_s = sums.get("engine.run", (0.0,))[0]
        checks.check(
            abs(sum(phases.values()) - engine_s) <= 1e-9 * max(engine_s, 1e-9),
            "engine phases do not sum to the engine time",
        )
        lines += report_breakdown(breakdown, wall, phases, sums, tracer)
        result["breakdown"] = {"wall_s": wall, "self_s": breakdown, "engine_phases_s": phases}
        result["spans"] = [
            {"process": process, "job": job, "parent": parent, "layer": layer,
             "total_s": total, "self_s": self_s, "calls": calls}
            for process, acc in (("parent", tracer.acc), ("pool", tracer.child_acc))
            for (job, parent, layer), (total, self_s, calls) in sorted(acc.items(), key=str)
        ]
    info = provenance(args, pool)
    passes = [
        {"wall": o["wall"], "timings": o["timings"]}
        for o in untraced + traced
    ]
    result.update(
        provenance=info, setup_s=setup_times, passes=passes, outputs=outputs,
        checks={"attempted": checks.attempted, "failed": checks.failed, "messages": checks.messages},
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True))

    lines.append(f"# provenance {json.dumps(info, sort_keys=True)}")
    for message in checks.messages:
        lines.append(f"# CHECK FAILED: {message}")
    lines.append(
        f"# fail_frac {checks.failed / checks.attempted:.6f} "
        f"({checks.failed} failed of {checks.attempted} operations); full result in {out_path.relative_to(ROOT)}"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"# {name:<34} {value!r:>24} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
