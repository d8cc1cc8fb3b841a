"""Command-line interface.

Subcommands::

    python -m repro methods
        List the registered allocation methods.

    python -m repro run --method sqlb --workload 0.8 --duration 400
        Run one simulation and print a summary (add --autonomous to let
        participants leave, --paper-scale for the Table 2 environment).

    python -m repro figure 4a
        Regenerate one of the paper's figures/tables (4a-4i, 5a-5c, 6,
        table3) and print the same series/rows the paper reports.

    python -m repro sweep run|status|merge|report
        Drive whole evaluation sweeps: ``run`` executes one deterministic
        shard of a scenarios × methods × seeds grid into a result store
        (writing a resume manifest), ``status`` reads the manifests
        (``--json`` for the machine-readable rows), ``merge`` unions
        store directories from several machines, and ``report`` prints
        the per-(scenario, method) summary table with means and
        quantiles across seeds.

    python -m repro queue init|work|status|report|retry|gc|fsck|fleet
        The dynamic counterpart to static shards: ``init`` turns a sweep
        grid into a durable file-backed work queue, ``work`` runs a
        worker daemon that leases jobs (TTL heartbeats; expired leases
        are requeued, so killed workers lose nothing) until the queue
        drains, ``status`` reports depth/liveness/ETA (``--json`` for
        machines), and ``report`` summarises whatever has completed so
        far (``--figures`` renders the analysis figure catalog from the
        completed cells, even mid-drain).  ``init --adaptive`` enables
        per-scenario adaptive seeding: seeds are added in batches until
        the 95 % CI half-width of ``--ci-metric`` (default: post-warmup
        response time) falls under ``--ci-threshold`` (capped at
        ``--max-seeds``).  ``work --expiry-clock mtime`` judges lease
        expiry by heartbeat-file mtimes against the shared filesystem's
        clock (skew-immune; no NTP requirement).  ``retry`` requeues
        error-parked jobs with a fresh attempts budget; ``gc`` lists
        orphaned atomic-write temp files and stale heartbeats
        (``--prune`` removes them).  ``fsck`` audits the queue
        directory (and, with ``--cache-dir``, the store) against the
        protocol invariants, exiting non-zero on unrepaired violations
        (``--repair`` applies the protocol-defined self-repairs).
        ``fleet -n N`` supervises N worker children, restarting
        crashed ones under an exponential-backoff restart budget and
        parking the fleet (exit 2) when the environment is poison.
        Point any number of ``work`` processes — same machine or a
        shared directory — at one queue.

    python -m repro store verify
        Check a result store's on-disk integrity: every entry's two
        halves (``.npz`` payload, ``.json`` commit marker) must pair
        and — by default — parse end-to-end.  Exits non-zero when
        unclean; ``--prune`` removes orphan halves and unreadable
        entries (none can ever be served as a hit).

    python -m repro trace record|replay
        Paired-comparison workflows: ``record`` runs one scenario cell
        and serialises its arrival stream (every arrival time, consumer,
        and query class) to a portable trace file; ``replay`` feeds that
        exact stream to the engine under any set of methods, storing the
        results under an explicit ``kind="trace"`` workload so
        ``analyze compare`` sees method deltas with the arrival noise
        removed.  A replay under the recording method and seed is
        asserted byte-identical to the recording run (non-zero exit
        otherwise).

    python -m repro analyze series|figures|compare
        The read side: turn result stores into paper artifacts with
        zero new simulations.  ``series`` prints one named sampled
        series aggregated across seeds (mean/p50/p90 and 95 % CI bands;
        ``--json`` for the full-resolution payload), ``figures``
        renders the declarative figure catalog (JSON data exports
        always; SVG/PNG when matplotlib is installed), and ``compare``
        diffs two stores cell by cell with per-metric thresholds,
        exiting non-zero on any regression.

    python -m repro perf [--quick] [--out PATH] [--check BASELINE]
        Time the engine's standard workload matrix (captive + autonomous,
        small + paper-scale populations) and report queries/sec; --out
        writes the machine-readable BENCH_engine.json, --check compares
        against a committed baseline and exits non-zero on a regression
        beyond --tolerance (default 30 %), --profile N appends a cProfile
        top-N of the hot path.

The simulation-running subcommands accept ``--cache-dir PATH`` (persist
completed runs to a disk store so re-invocations skip simulation) and
``--no-cache`` (ignore any configured store, including
``$REPRO_CACHE_DIR``); ``figure`` and ``sweep`` additionally accept
``--workers N`` to fan their many simulation jobs out over a process
pool (``run`` executes a single job, so a pool would not help it).
Seed lists accept the sugar ``paper`` (the paper's ``nbRepeat = 10``
seed set) and ``default`` alongside explicit integers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import time
from collections import Counter
from pathlib import Path

from repro.allocation.registry import PAPER_METHODS, available_methods
from repro.analysis import (
    DEFAULT_COMPARE_METRICS,
    DEFAULT_THRESHOLD,
    available_figures,
    available_metrics,
    band_payload,
    cell_band,
    cells_from_store,
    compare_stores,
    format_band_table,
    format_compare_table,
    render_catalog,
)
from repro.audit import report as audit_reports
from repro.audit.recorder import AUDIT_DIR_ENV, configure_audit
from repro.experiments.store import ResultStore
from repro.experiments.executor import (
    CACHE_DIR_ENV,
    SimulationJob,
    configure_default_executor,
    get_default_executor,
    workers_from_environment,
)
from repro.experiments.autonomy import (
    consumer_departure_curve,
    departure_reason_table,
    departure_response_times,
    provider_departure_curve,
)
from repro.experiments.captive import (
    DEFAULT_WORKLOADS,
    FIGURE4_SERIES,
    captive_ramp,
    response_time_curve,
)
from repro.experiments.harness import DEFAULT_SEEDS, PAPER_SEEDS
from repro.experiments.perf import (
    append_history,
    compare_reports,
    format_history,
    format_report,
    load_history,
    load_report,
    profile_run,
    run_perf,
    write_report,
)
from repro.experiments.report import (
    format_curve_table,
    format_reason_table,
    format_series_table,
)
from repro.reliability.durability import atomic_write
from repro.simulation.config import (
    DepartureRules,
    WorkloadSpec,
    paper_config,
    scaled_config,
)
from repro.scheduler import (
    EXPIRY_CLOCKS,
    FLEET_STATE_NAME,
    AdaptiveConfig,
    FleetSupervisor,
    QueueWorker,
    WorkQueue,
    format_queue_status,
    format_queue_top,
    fsck_queue,
    queue_cells,
    queue_report,
    queue_status,
    queue_top,
    spawn_cli_worker,
)
from repro.telemetry import (
    PROFILE_DIR_ENV,
    TELEMETRY_DIR_ENV,
    TelemetryReadError,
    collect_hotspots,
    configure_telemetry,
    format_hotspots,
    format_telemetry_report,
    format_timeline,
    load_stream,
    merge_events,
    telemetry_report,
    timeline_from_path,
    write_bundle,
)
from repro.simulation.engine import ENGINE_VERSION
from repro.simulation.trace import (
    load_trace,
    record_trace,
    replay_config,
    series_fingerprint,
    trace_digest,
)
from repro.sweeps import (
    SCALES,
    SweepRunner,
    SweepSpec,
    available_scenarios,
    format_sweep_table,
    load_manifests,
    manifest_directory,
    manifest_status,
    merge_stores,
    scenario_catalog,
    sweep_summary,
)
from repro.sweeps.runner import environment_hash, write_manifest

__all__ = ["build_parser", "main"]

FIGURES = tuple(FIGURE4_SERIES) + ("4i", "5a", "5b", "5c", "6", "table3")

#: Seed-list sugar accepted wherever ``--seeds`` takes values.
SEED_KEYWORDS = {"paper": PAPER_SEEDS, "default": DEFAULT_SEEDS}


def _seed_token(text: str) -> str | int:
    """One ``--seeds`` token: an integer or a named seed set."""
    if text in SEED_KEYWORDS:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be integers or one of {sorted(SEED_KEYWORDS)}, "
            f"got {text!r}"
        ) from None


def resolve_seeds(tokens: list[str | int]) -> tuple[int, ...]:
    """Expand keyword tokens and deduplicate, preserving order."""
    seeds: list[int] = []
    for token in tokens:
        if isinstance(token, str):
            seeds.extend(SEED_KEYWORDS[token])
        else:
            seeds.append(token)
    return tuple(dict.fromkeys(seeds))


def _shard_value(text: str) -> tuple[int, int]:
    """Parse ``K/N`` into (shard_index, shard_count)."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like K/N (e.g. 0/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard K/N needs 0 <= K < N, got {text!r}"
        )
    return index, count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SQLB (VLDB 2007) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("methods", help="list registered allocation methods")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {value}"
            )
        return value

    def add_cache_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--cache-dir",
            default=None,
            help="persist completed runs to this result-store directory "
            "(defaults to $REPRO_CACHE_DIR when set)",
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the persistent result store entirely",
        )
        command.add_argument(
            "--telemetry",
            default=None,
            metavar="DIR",
            help="enable instrumentation and write span/counter event "
            "files (JSONL) to this directory; read them back with "
            "'repro telemetry report DIR'",
        )
        command.add_argument(
            "--audit",
            default=None,
            metavar="DIR",
            help="record every allocation decision and commit one "
            "npz shard + manifest per simulated run to this "
            "directory; read them back with 'repro audit report DIR'",
        )

    run = sub.add_parser("run", help="run one simulation")
    # `run` executes exactly one job, so a worker pool would be a no-op;
    # only the cache flags apply here.
    add_cache_options(run)
    run.add_argument("--method", default="sqlb", choices=available_methods())
    run.add_argument(
        "--workload",
        type=float,
        default=0.8,
        help="fixed workload as a fraction of total system capacity",
    )
    run.add_argument("--duration", type=float, default=400.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--autonomous",
        action="store_true",
        help="allow participants to leave (Section 6.3.2 thresholds)",
    )
    run.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the exact Table 2 environment (slow)",
    )

    figure = sub.add_parser(
        "figure", help="regenerate one of the paper's figures/tables"
    )
    figure.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="process-pool size for the figure's simulation jobs "
        "(default: $REPRO_WORKERS, else 1 = serial)",
    )
    add_cache_options(figure)
    figure.add_argument("which", choices=FIGURES)
    figure.add_argument(
        "--seeds",
        type=_seed_token,
        nargs="+",
        default=[11],
        help="repetition seeds: integers and/or 'paper' (the nbRepeat=10 "
        "set) / 'default'",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run, inspect, merge, and summarise whole evaluation sweeps",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_spec_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--name",
            default="paper-grid",
            help="sweep name recorded in manifests (default: paper-grid)",
        )
        command.add_argument(
            "--scenarios",
            nargs="+",
            choices=available_scenarios(),
            default=list(available_scenarios()),
            metavar="SCENARIO",
            help="catalog scenarios to sweep (default: the whole catalog; "
            f"available: {', '.join(available_scenarios())})",
        )
        command.add_argument(
            "--methods",
            nargs="+",
            choices=available_methods(),
            default=list(PAPER_METHODS),
            metavar="METHOD",
            help="allocation methods (default: the paper's three)",
        )
        command.add_argument(
            "--seeds",
            type=_seed_token,
            nargs="+",
            default=["default"],
            help="repetition seeds: integers and/or 'paper' (the "
            "nbRepeat=10 set) / 'default'",
        )
        command.add_argument(
            "--scale",
            choices=sorted(SCALES),
            default="scaled",
            help="base environment scale (default: scaled)",
        )

    sweep_run = sweep_sub.add_parser(
        "run", help="execute one deterministic shard of a sweep"
    )
    add_spec_options(sweep_run)
    sweep_run.add_argument(
        "--shard",
        type=_shard_value,
        default=(0, 1),
        metavar="K/N",
        help="which deterministic shard to run (default 0/1 = everything)",
    )
    sweep_run.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="process-pool size for the shard's simulation jobs",
    )
    add_cache_options(sweep_run)

    sweep_status = sweep_sub.add_parser(
        "status", help="summarise the shard manifests under a store"
    )
    add_cache_options(sweep_status)
    sweep_status.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable manifest rows instead of a table",
    )

    sweep_merge = sweep_sub.add_parser(
        "merge",
        help="union result-store directories (and manifests) into one",
    )
    sweep_merge.add_argument(
        "sources", nargs="+", help="source store directories to merge from"
    )
    sweep_merge.add_argument(
        "--into", required=True, help="destination store directory"
    )

    sweep_report = sweep_sub.add_parser(
        "report",
        help="per-(scenario, method) summary: means and quantiles "
        "across seeds",
    )
    add_spec_options(sweep_report)
    sweep_report.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="process-pool size for any cells missing from the store",
    )
    add_cache_options(sweep_report)

    def positive_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive number, got {value}"
            )
        return value

    queue = sub.add_parser(
        "queue",
        help="durable work queue: init once, drain with N worker daemons",
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)

    def add_queue_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--queue-dir",
            required=True,
            help="queue directory (shared between all workers)",
        )

    queue_init = queue_sub.add_parser(
        "init", help="create a queue directory from a sweep grid"
    )
    add_queue_dir(queue_init)
    add_spec_options(queue_init)
    queue_init.add_argument(
        "--adaptive",
        action="store_true",
        help="enable per-scenario adaptive seeding (CI-driven)",
    )
    queue_init.add_argument(
        "--ci-threshold",
        type=positive_float,
        default=0.5,
        metavar="SECONDS",
        help="adaptive: stop adding seeds once every method's 95%% CI "
        "half-width of post-warmup response time is at or under this "
        "(default 0.5 s)",
    )
    queue_init.add_argument(
        "--max-seeds",
        type=positive_int,
        default=len(PAPER_SEEDS),
        help="adaptive: per-scenario cap on total seeds "
        f"(default {len(PAPER_SEEDS)}, the paper's nbRepeat)",
    )
    queue_init.add_argument(
        "--seed-batch",
        type=positive_int,
        default=2,
        help="adaptive: seeds added per extension (default 2)",
    )
    queue_init.add_argument(
        "--ci-metric",
        choices=available_metrics(),
        default="response_time_post_warmup",
        metavar="METRIC",
        help="adaptive: registry metric whose CI drives convergence "
        f"(default response_time_post_warmup; available: "
        f"{', '.join(available_metrics())})",
    )

    queue_work = queue_sub.add_parser(
        "work", help="run one worker daemon until the queue drains"
    )
    add_queue_dir(queue_work)
    add_cache_options(queue_work)
    queue_work.add_argument(
        "--owner",
        default=None,
        help="worker id recorded in leases/manifests "
        "(default: host-pid-random)",
    )
    queue_work.add_argument(
        "--max-jobs",
        type=positive_int,
        default=None,
        help="stop after this many jobs (default: run until drained)",
    )
    queue_work.add_argument(
        "--ttl",
        type=positive_float,
        default=60.0,
        help="lease time-to-live in seconds; heartbeats renew at ttl/3 "
        "(default 60)",
    )
    queue_work.add_argument(
        "--poll",
        type=positive_float,
        default=0.5,
        help="seconds between queue checks while idle (default 0.5)",
    )
    queue_work.add_argument(
        "--wait",
        action="store_true",
        help="keep polling after the queue drains (standing daemon)",
    )
    queue_work.add_argument(
        "--max-attempts",
        type=positive_int,
        default=3,
        help="attempts per job before it is parked as an error record "
        "instead of retried (default 3)",
    )
    queue_work.add_argument(
        "--expiry-clock",
        choices=EXPIRY_CLOCKS,
        default="wall",
        help="how lease expiry is judged: 'wall' compares recorded "
        "deadlines against this box's clock (multi-box fleets need "
        "NTP); 'mtime' derives deadlines from heartbeat-file mtimes "
        "and 'now' from the shared filesystem's clock (skew-immune)",
    )
    queue_work.add_argument(
        "--profile",
        default=None,
        metavar="DIR",
        help="dump one cProfile stats file per executed job into DIR "
        "(aggregate with `repro telemetry hotspots DIR`); off by "
        "default and costs nothing when off",
    )

    queue_status_cmd = queue_sub.add_parser(
        "status", help="queue depth, worker liveness, and ETA"
    )
    add_queue_dir(queue_status_cmd)
    add_cache_options(queue_status_cmd)
    queue_status_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable status payload",
    )
    queue_status_cmd.add_argument(
        "--expiry-clock",
        choices=EXPIRY_CLOCKS,
        default="wall",
        help="judge worker liveness under this clock; pass the same "
        "value the fleet's workers use so status and scavengers agree "
        "(mtime: heartbeat-file mtimes vs. the shared filesystem's "
        "clock, skew-immune)",
    )

    queue_top_cmd = queue_sub.add_parser(
        "top",
        help="live fleet dashboard: per-worker throughput, heartbeat "
        "age, and oldest leases, refreshed in place",
    )
    add_queue_dir(queue_top_cmd)
    queue_top_cmd.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (for scripts and CI)",
    )
    queue_top_cmd.add_argument(
        "--interval",
        type=positive_float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    queue_top_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable frame (implies --once)",
    )
    queue_top_cmd.add_argument(
        "--expiry-clock",
        choices=EXPIRY_CLOCKS,
        default="wall",
        help="judge worker liveness under this clock (match the "
        "fleet's workers)",
    )

    queue_report_cmd = queue_sub.add_parser(
        "report",
        help="summary table over every cell the queue has completed",
    )
    add_queue_dir(queue_report_cmd)
    add_cache_options(queue_report_cmd)
    queue_report_cmd.add_argument(
        "--figures",
        action="store_true",
        help="also render the analysis figure catalog from the "
        "completed cells (works on a partially drained queue)",
    )
    queue_report_cmd.add_argument(
        "--figures-out",
        default=None,
        metavar="DIR",
        help="where --figures writes (default: <store>/figures)",
    )
    queue_report_cmd.add_argument(
        "--formats",
        nargs="+",
        choices=("json", "svg", "png"),
        default=["json", "svg"],
        help="--figures output formats (default: json svg; image "
        "formats are skipped with a note when matplotlib is missing)",
    )

    queue_retry = queue_sub.add_parser(
        "retry",
        help="requeue error-parked jobs with a fresh attempts budget",
    )
    add_queue_dir(queue_retry)
    queue_retry.add_argument(
        "--ids",
        nargs="+",
        default=None,
        metavar="JOB_ID",
        help="retry only these job ids (default: every error park)",
    )
    queue_retry.add_argument(
        "--list",
        action="store_true",
        help="list error-parked jobs without requeueing anything",
    )
    queue_retry.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable retry report",
    )

    queue_gc = queue_sub.add_parser(
        "gc",
        help="find orphaned temp files and stale heartbeats "
        "(--prune removes them)",
    )
    add_queue_dir(queue_gc)
    add_cache_options(queue_gc)
    queue_gc.add_argument(
        "--prune",
        action="store_true",
        help="remove what gc finds (default: list only)",
    )
    queue_gc.add_argument(
        "--temp-age",
        type=positive_float,
        default=3600.0,
        metavar="SECONDS",
        help="only count temp files older than this (default 3600; "
        "younger ones may belong to a live writer)",
    )
    queue_gc.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable gc report",
    )

    queue_fsck = queue_sub.add_parser(
        "fsck",
        help="audit the queue directory (and its store) against the "
        "protocol invariants; exits non-zero on unrepaired violations",
    )
    add_queue_dir(queue_fsck)
    add_cache_options(queue_fsck)
    queue_fsck.add_argument(
        "--repair",
        action="store_true",
        help="apply the protocol-defined self-repairs (requeue, "
        "discard, re-ticket, prune); never invents state or deletes "
        "a result",
    )
    queue_fsck.add_argument(
        "--temp-age",
        type=positive_float,
        default=3600.0,
        metavar="SECONDS",
        help="only flag atomic-write temp files older than this "
        "(default 3600; younger ones may belong to a live writer)",
    )
    queue_fsck.add_argument(
        "--max-attempts",
        type=positive_int,
        default=3,
        help="attempts budget used when requeueing uncovered leases "
        "(default 3)",
    )
    queue_fsck.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable fsck report",
    )

    queue_fleet = queue_sub.add_parser(
        "fleet",
        help="supervise N worker daemons: restart crashed ones under "
        "a restart budget, park the fleet when the environment is "
        "poison (exit 2)",
    )
    add_queue_dir(queue_fleet)
    add_cache_options(queue_fleet)
    queue_fleet.add_argument(
        "-n",
        "--count",
        type=positive_int,
        default=2,
        help="number of concurrent worker children (default 2)",
    )
    queue_fleet.add_argument(
        "--restart-budget",
        type=positive_int,
        default=None,
        help="fleet-wide restarts before parking (default: 3 per "
        "child)",
    )
    queue_fleet.add_argument(
        "--backoff",
        type=positive_float,
        default=0.5,
        metavar="SECONDS",
        help="base restart backoff; doubles per restart of a slot, "
        "capped at 30s (default 0.5)",
    )
    queue_fleet.add_argument(
        "--owner-prefix",
        default=None,
        help="children are named <prefix>-0..N-1 in leases/heartbeats "
        "(default: fleet-<host>-<pid>)",
    )
    queue_fleet.add_argument(
        "--ttl",
        type=positive_float,
        default=60.0,
        help="lease TTL passed to each worker (default 60)",
    )
    queue_fleet.add_argument(
        "--max-attempts",
        type=positive_int,
        default=3,
        help="per-job attempts budget passed to each worker (default 3)",
    )
    queue_fleet.add_argument(
        "--expiry-clock",
        choices=EXPIRY_CLOCKS,
        default="wall",
        help="expiry clock passed to each worker",
    )
    queue_fleet.add_argument(
        "--profile",
        default=None,
        metavar="DIR",
        help="pass --profile DIR to each worker child: one cProfile "
        "stats file per executed job, aggregated with "
        "`repro telemetry hotspots DIR`",
    )
    queue_fleet.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable fleet report",
    )

    store = sub.add_parser(
        "store",
        help="inspect a result store directly (verify on-disk "
        "integrity)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="check every entry's halves pair and parse; exits "
        "non-zero when the store is unclean",
    )
    add_cache_options(store_verify)
    store_verify.add_argument(
        "--shallow",
        action="store_true",
        help="pair the halves only; skip opening every entry "
        "(fast, misses power-loss torn files)",
    )
    store_verify.add_argument(
        "--prune",
        action="store_true",
        help="delete orphan halves and unreadable entries (none can "
        "ever be served as a hit)",
    )
    store_verify.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable verify report",
    )

    trace = sub.add_parser(
        "trace",
        help="record one run's arrival stream; replay it under other "
        "methods for paired (same-queries) comparisons",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_record = trace_sub.add_parser(
        "record",
        help="run one scenario cell, writing its arrival trace and "
        "storing the recording run",
    )
    add_cache_options(trace_record)
    trace_record.add_argument(
        "--out",
        required=True,
        metavar="TRACE",
        help="trace file to write",
    )
    trace_record.add_argument(
        "--scenario",
        required=True,
        choices=available_scenarios(),
        metavar="SCENARIO",
        help="catalog scenario to record "
        f"(available: {', '.join(available_scenarios())})",
    )
    trace_record.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="tiny",
        help="base environment scale (default: tiny)",
    )
    trace_record.add_argument(
        "--method",
        default="sqlb",
        choices=available_methods(),
        help="allocation method of the recording run (default: sqlb)",
    )
    trace_record.add_argument("--seed", type=int, default=0)

    trace_replay = trace_sub.add_parser(
        "replay",
        help="replay a recorded trace under one or more methods into "
        "a result store",
    )
    add_cache_options(trace_replay)
    trace_replay.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="process-pool size for the per-method replay jobs "
        "(default: $REPRO_WORKERS, else 1 = serial)",
    )
    trace_replay.add_argument(
        "--trace",
        required=True,
        metavar="TRACE",
        help="trace file written by 'repro trace record'",
    )
    trace_replay.add_argument(
        "--methods",
        nargs="+",
        choices=available_methods(),
        default=list(PAPER_METHODS),
        metavar="METHOD",
        help="methods to replay the trace under (default: the "
        "paper's three)",
    )
    trace_replay.add_argument(
        "--scenario",
        choices=available_scenarios(),
        default=None,
        metavar="SCENARIO",
        help="catalog scenario of the replay environment (default: "
        "the trace's recorded provenance)",
    )
    trace_replay.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="base environment scale (default: the trace's recorded "
        "provenance)",
    )

    def add_store_option(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--store",
            default=None,
            help="result-store directory to analyze "
            "(defaults to $REPRO_CACHE_DIR when set)",
        )

    analyze = sub.add_parser(
        "analyze",
        help="read-side analysis: series bands, paper figures, and "
        "cross-store regression verdicts (never simulates)",
    )
    analyze_sub = analyze.add_subparsers(
        dest="analyze_command", required=True
    )

    analyze_series = analyze_sub.add_parser(
        "series",
        help="one sampled series aggregated across seeds, per cell",
    )
    add_store_option(analyze_series)
    analyze_series.add_argument(
        "--series",
        required=True,
        metavar="NAME",
        help="sampled series name (e.g. response_time_mean, "
        "provider_intention_satisfaction_mean)",
    )
    analyze_series.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help="restrict to these scenarios (default: all in the store)",
    )
    analyze_series.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="METHOD",
        help="restrict to these methods (default: all in the store)",
    )
    analyze_series.add_argument(
        "--max-rows",
        type=positive_int,
        default=24,
        help="table subsample size per cell (default 24; --json is "
        "always full resolution)",
    )
    analyze_series.add_argument(
        "--json",
        action="store_true",
        help="emit the full-resolution band payloads",
    )

    analyze_figures = analyze_sub.add_parser(
        "figures", help="render the paper-figure catalog from a store"
    )
    add_store_option(analyze_figures)
    analyze_figures.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (default: <store>/figures)",
    )
    analyze_figures.add_argument(
        "--formats",
        nargs="+",
        choices=("json", "svg", "png"),
        default=["json", "svg"],
        help="output formats (default: json svg; image formats are "
        "skipped with a note when matplotlib is missing)",
    )
    analyze_figures.add_argument(
        "--only",
        nargs="+",
        choices=available_figures(),
        default=None,
        metavar="FIGURE",
        help="render only these catalog figures "
        f"(available: {', '.join(available_figures())})",
    )

    def threshold_value(text: str) -> tuple[str, float]:
        metric, sep, value = text.partition("=")
        if not sep or metric not in available_metrics():
            raise argparse.ArgumentTypeError(
                f"thresholds look like METRIC=FRACTION with METRIC "
                f"one of {', '.join(available_metrics())}; got {text!r}"
            )
        try:
            fraction = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"threshold value must be a number, got {value!r}"
            ) from None
        if fraction < 0:
            raise argparse.ArgumentTypeError(
                f"threshold must be >= 0, got {fraction}"
            )
        return metric, fraction

    analyze_compare = analyze_sub.add_parser(
        "compare",
        help="diff two stores cell by cell; exit 1 on any regression",
    )
    analyze_compare.add_argument(
        "store_a", help="baseline result-store directory"
    )
    analyze_compare.add_argument(
        "store_b", help="candidate result-store directory"
    )
    analyze_compare.add_argument(
        "--metrics",
        nargs="+",
        choices=available_metrics(),
        default=list(DEFAULT_COMPARE_METRICS),
        metavar="METRIC",
        help="registry metrics to compare "
        f"(default: {', '.join(DEFAULT_COMPARE_METRICS)})",
    )
    analyze_compare.add_argument(
        "--threshold",
        type=threshold_value,
        action="append",
        default=None,
        metavar="METRIC=FRACTION",
        help="per-metric relative-worsening gate (repeatable; e.g. "
        "--threshold response_time_post_warmup=0.3)",
    )
    analyze_compare.add_argument(
        "--default-threshold",
        type=positive_float,
        default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help="gate for metrics without an explicit --threshold "
        f"(default {DEFAULT_THRESHOLD})",
    )
    analyze_compare.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable verdict payload",
    )

    perf = sub.add_parser(
        "perf",
        help="time the engine's standard workload matrix (queries/sec)",
    )
    perf.add_argument(
        "--quick",
        action="store_true",
        help="small-population cells only (seconds, for CI smoke)",
    )
    perf.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the machine-readable report JSON here "
        "(e.g. BENCH_engine.json)",
    )
    perf.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against this baseline JSON; exit 1 when any shared "
        "cell regresses beyond --tolerance",
    )
    perf.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional qps drop before --check fails "
        "(default 0.30)",
    )
    perf.add_argument(
        "--profile",
        type=positive_int,
        default=None,
        metavar="N",
        help="append a cProfile top-N of one representative cell",
    )
    perf.add_argument(
        "--repeats",
        type=positive_int,
        default=2,
        help="time each cell this many times, report the best "
        "(default 2; filters scheduler noise out of the gate)",
    )
    perf.add_argument(
        "--no-phases",
        action="store_true",
        help="skip the extra instrumented pass that records the "
        "per-phase timer breakdown (the timed repeats are always "
        "uninstrumented either way)",
    )
    perf.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="append a timestamped JSONL row (qps matrix + phase "
        "breakdown) to this file, e.g. BENCH_history.jsonl",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", metavar="")
    perf_history = perf_sub.add_parser(
        "history",
        help="render the qps trend from a --history JSONL file",
    )
    perf_history.add_argument(
        "file",
        metavar="PATH",
        help="history file written by `repro perf --history PATH`",
    )
    perf_history.add_argument(
        "--json",
        action="store_true",
        help="emit the raw history rows as a JSON array",
    )

    telemetry = sub.add_parser(
        "telemetry",
        help="read back telemetry event directories written by "
        "--telemetry DIR",
    )
    telemetry_sub = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    telemetry_report_cmd = telemetry_sub.add_parser(
        "report",
        help="per-phase breakdown, cache efficacy, and timer quantiles "
        "aggregated over every event file in a directory",
    )
    telemetry_report_cmd.add_argument(
        "events_dir",
        metavar="DIR",
        help="directory of events-*.jsonl files (the --telemetry DIR "
        "of a previous run)",
    )
    telemetry_report_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report payload",
    )
    telemetry_merge_cmd = telemetry_sub.add_parser(
        "merge",
        help="union every per-process events file into one canonical, "
        "deterministically ordered, digest-stamped merged stream",
    )
    telemetry_merge_cmd.add_argument(
        "events_dir",
        metavar="DIR",
        help="directory of events-*.jsonl files (the --telemetry DIR "
        "of a previous run)",
    )
    telemetry_merge_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="merged stream destination (default: DIR/merged.jsonl)",
    )
    telemetry_merge_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the merge summary as JSON",
    )
    telemetry_timeline_cmd = telemetry_sub.add_parser(
        "timeline",
        help="reconstruct the fleet drain: per-worker lanes, queue-wait/"
        "execute/idle decomposition, straggler and critical path",
    )
    telemetry_timeline_cmd.add_argument(
        "path",
        metavar="PATH",
        help="a merged stream, a single events file, or a telemetry "
        "directory (its merged.jsonl is preferred when present)",
    )
    telemetry_timeline_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable timeline payload",
    )
    telemetry_hotspots_cmd = telemetry_sub.add_parser(
        "hotspots",
        help="aggregate per-job cProfile dumps (queue work --profile / "
        "$REPRO_PROFILE_DIR) into a fleet-wide top-N table",
    )
    telemetry_hotspots_cmd.add_argument(
        "profile_dir",
        metavar="DIR",
        help="directory of profile-*.pstats dumps",
    )
    telemetry_hotspots_cmd.add_argument(
        "--top",
        type=positive_int,
        default=15,
        help="functions to list, by cumulative time (default 15)",
    )
    telemetry_hotspots_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable hotspot payload",
    )
    telemetry_bundle_cmd = telemetry_sub.add_parser(
        "bundle",
        help="render one self-contained HTML ops bundle (timeline, "
        "phases, counters, bench baseline) from a merged stream",
    )
    telemetry_bundle_cmd.add_argument(
        "path",
        metavar="PATH",
        help="a merged stream, a single events file, or a telemetry "
        "directory (its merged.jsonl is preferred when present)",
    )
    telemetry_bundle_cmd.add_argument(
        "--out",
        required=True,
        metavar="HTML",
        help="output HTML file (single file, no external assets)",
    )
    telemetry_bundle_cmd.add_argument(
        "--bench",
        default=None,
        metavar="JSON",
        help="embed this BENCH_engine.json baseline for side-by-side "
        "comparison",
    )
    telemetry_bundle_cmd.add_argument(
        "--bench-history",
        default=None,
        metavar="JSONL",
        help="embed a perf-trend section rendered from this "
        "BENCH_history.jsonl (per-mode deltas, torn tails skipped)",
    )
    telemetry_bundle_cmd.add_argument(
        "--audit-shards",
        default=None,
        metavar="PATH",
        dest="audit_shards",
        help="embed decision-audit report sections: PATH is a shard "
        "manifest, an .npz shard, or a directory of shards",
    )
    telemetry_bundle_cmd.add_argument(
        "--title",
        default="repro fleet ops bundle",
        help="bundle page title",
    )

    audit = sub.add_parser(
        "audit",
        help="read back allocation decision shards written by "
        "--audit DIR",
    )
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    audit_report_cmd = audit_sub.add_parser(
        "report",
        help="per-provider allocation shares, score-gap distribution, "
        "per-class routing, and the anomaly sweep for one shard",
    )
    audit_report_cmd.add_argument(
        "path",
        metavar="PATH",
        help="a shard manifest, an .npz shard, or a directory of "
        "shards (then --method selects one)",
    )
    audit_report_cmd.add_argument(
        "--method",
        default=None,
        help="when PATH is a directory: the shard's registry method",
    )
    audit_report_cmd.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write the machine-readable payload to OUT "
        "(deterministic: double renders are byte-identical)",
    )
    audit_explain_cmd = audit_sub.add_parser(
        "explain",
        help="reconstruct one decision: top-K candidates, scores, "
        "intentions, who won and at what rank",
    )
    audit_explain_cmd.add_argument("path", metavar="PATH")
    audit_explain_cmd.add_argument(
        "index",
        type=int,
        metavar="QUERY_IDX",
        help="decision index within the shard (0-based issue order)",
    )
    audit_explain_cmd.add_argument(
        "--method",
        default=None,
        help="when PATH is a directory: the shard's registry method",
    )
    audit_diff_cmd = audit_sub.add_parser(
        "diff",
        help="paired decision-by-decision divergence of two shards "
        "recorded over the same replayed trace",
    )
    audit_diff_cmd.add_argument("path_a", metavar="PATH_A")
    audit_diff_cmd.add_argument("path_b", metavar="PATH_B")
    audit_diff_cmd.add_argument(
        "--method-a",
        default=None,
        help="when PATH_A is a directory: the first shard's method",
    )
    audit_diff_cmd.add_argument(
        "--method-b",
        default=None,
        help="when PATH_B is a directory: the second shard's method",
    )
    audit_diff_cmd.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write the machine-readable diff payload to OUT",
    )
    return parser


def _cmd_methods() -> str:
    lines = ["registered allocation methods:"]
    for name in available_methods():
        marker = " (paper)" if name in PAPER_METHODS else ""
        lines.append(f"  {name}{marker}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> str:
    if args.paper_scale:
        config = paper_config(workload=WorkloadSpec.fixed(args.workload))
    else:
        config = scaled_config(
            duration=args.duration,
            # Keep a post-warmup measurement window even on short runs.
            warmup_time=min(150.0, args.duration / 4.0),
            workload=WorkloadSpec.fixed(args.workload),
        )
    if args.autonomous:
        config = config.with_departures(DepartureRules.autonomous(True))
    result = get_default_executor().run_one(
        config, args.method, seed=args.seed
    )

    lines = [
        f"method: {result.method_name}   seed: {result.seed}   "
        f"workload: {args.workload:.0%}",
        f"queries issued/served/unserved: {result.queries_issued}/"
        f"{result.queries_served}/{result.queries_unserved}",
        f"response time (post-warmup mean): "
        f"{result.response_time_post_warmup:.2f} s",
        f"provider satisfaction (intentions): "
        f"{result.series('provider_intention_satisfaction_mean')[-1]:.3f}",
        f"provider alloc. satisfaction (preferences): "
        f"{result.series('provider_preference_allocation_satisfaction_mean')[-1]:.3f}",
        f"consumer alloc. satisfaction: "
        f"{result.series('consumer_allocation_satisfaction_mean')[-1]:.3f}",
    ]
    if args.autonomous:
        providers = Counter(
            d.reason for d in result.departures if d.kind == "provider"
        )
        consumers = sum(
            1 for d in result.departures if d.kind == "consumer"
        )
        lines.append(
            f"departures: providers {dict(providers) or 0}, "
            f"consumers {consumers}"
        )
    return "\n".join(lines)


def _cmd_figure(args: argparse.Namespace) -> str:
    seeds = resolve_seeds(args.seeds)
    which = args.which
    if which in FIGURE4_SERIES:
        family = captive_ramp(seeds=seeds)
        series = FIGURE4_SERIES[which]
        times = next(iter(family.values())).times()
        return format_series_table(
            times,
            {m: family[m].series(series) for m in family},
            value_label=f"Figure {which}: {series}",
        )
    if which == "4i":
        curve = response_time_curve(seeds=seeds)
        return format_curve_table(
            curve.workloads,
            curve.response_times,
            value_label="Figure 4(i): response time (s), captive",
        )
    if which in ("5a", "5b"):
        curve = departure_response_times(
            include_overutilization=(which == "5b"), seeds=seeds
        )
        return format_curve_table(
            curve.workloads,
            curve.response_times,
            value_label=f"Figure {which}: response time (s), autonomous",
        )
    if which == "5c":
        curve = provider_departure_curve(seeds=seeds)
        return format_curve_table(
            DEFAULT_WORKLOADS,
            {m: 100.0 * v for m, v in curve.items()},
            value_label="Figure 5(c): provider departures (%)",
            precision=1,
        )
    if which == "6":
        curve = consumer_departure_curve(seeds=seeds)
        return format_curve_table(
            DEFAULT_WORKLOADS,
            {m: 100.0 * v for m, v in curve.items()},
            value_label="Figure 6: consumer departures (%)",
            precision=1,
        )
    if which == "table3":
        return format_reason_table(departure_reason_table(seeds=seeds))
    raise AssertionError(f"unhandled figure {which!r}")  # pragma: no cover


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    return SweepSpec(
        name=args.name,
        scenarios=tuple(args.scenarios),
        methods=tuple(args.methods),
        seeds=resolve_seeds(args.seeds),
        scale=args.scale,
    )


def _cmd_sweep_run(args: argparse.Namespace) -> str:
    executor = get_default_executor()
    if executor.store is None:
        raise SystemExit(
            "repro: error: sweep run needs a result store for manifests "
            "and resume; pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    spec = _spec_from_args(args)
    shard_index, shard_count = args.shard
    report = SweepRunner(executor).run_shard(spec, shard_index, shard_count)
    lines = [
        f"sweep: {spec.name}   spec: {spec.spec_hash()}   "
        f"shard: {shard_index}/{shard_count}",
        f"jobs: {report.jobs}   simulated: {report.simulated}   "
        f"store hits: {report.store_hits}",
        f"manifest: {report.manifest_path}",
    ]
    if report.all_store_hits:
        lines.append("shard fully warm: zero new simulations")
    return "\n".join(lines)


def _resolve_cache_dir(args: argparse.Namespace) -> str | None:
    """The one cache-dir resolution: flag beats env, --no-cache beats
    both.  Every command that touches a store resolves through here so
    they can never disagree about which store they read."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get(CACHE_DIR_ENV) or None


def _require_cache_dir(args: argparse.Namespace, command: str) -> str:
    if args.no_cache:
        raise SystemExit(
            f"repro: error: {command} reads a result store; "
            "--no-cache makes no sense here"
        )
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        raise SystemExit(
            f"repro: error: {command} needs --cache-dir or $REPRO_CACHE_DIR"
        )
    return cache_dir


def _cmd_sweep_status(args: argparse.Namespace) -> str:
    cache_dir = _require_cache_dir(args, "sweep status")
    rows = manifest_status(load_manifests(cache_dir))
    if args.json:
        return json.dumps(
            {"engine_version": ENGINE_VERSION, "manifests": rows},
            sort_keys=True,
            indent=1,
        )
    if not rows:
        return f"no sweep manifests under {cache_dir}"
    lines = [
        f"{'sweep':<16} {'spec':<16} {'source':>14} {'jobs':>5} "
        f"{'simulated':>9} {'store_hit':>9} {'engine':>7}"
    ]
    for row in rows:
        stale = " (stale)" if row["stale"] else ""
        if row["worker"] is not None:
            source = f"w:{row['worker'][:12]}"
        elif row.get("trace") is not None:
            source = f"t:{Path(row['trace']).name[:12]}"
        else:
            source = f"{row['shard_index']}/{row['shard_count']}"
        lines.append(
            f"{row['sweep'] or '?':<16} "
            f"{row['spec_hash'] or '?':<16} "
            f"{source:>14} "
            f"{row['jobs']:>5} "
            f"{row['simulated']:>9} "
            f"{row['store_hits']:>9} "
            f"{row['engine_version'] or '?':>7}{stale}"
        )
    return "\n".join(lines)


def _cmd_sweep_merge(args: argparse.Namespace) -> str:
    try:
        report = merge_stores(args.sources, args.into)
    except FileNotFoundError as error:
        raise SystemExit(f"repro: error: {error}") from None
    return (
        f"merged into {report.destination}: "
        f"{report.entries_copied} entries copied, "
        f"{report.entries_skipped} already present; "
        f"{report.manifests_copied} manifests copied, "
        f"{report.manifests_skipped} already present"
    )


def _cmd_queue_init(args: argparse.Namespace) -> str:
    spec = _spec_from_args(args)
    adaptive = None
    if args.adaptive:
        adaptive = AdaptiveConfig(
            ci_threshold=args.ci_threshold,
            max_seeds=args.max_seeds,
            seed_batch=args.seed_batch,
            metric=args.ci_metric,
        ).payload()
        if args.max_seeds <= len(spec.seeds):
            # Equal is as useless as below: every scenario starts
            # "capped" and the advertised CI-driven seeding never runs.
            raise SystemExit(
                f"repro: error: --max-seeds {args.max_seeds} leaves no "
                f"headroom over the {len(spec.seeds)} initial seeds; "
                "adaptive seeding could never add one"
            )
    try:
        queue = WorkQueue.init(args.queue_dir, spec, adaptive=adaptive)
    except FileExistsError as error:
        raise SystemExit(f"repro: error: {error}") from None
    counts = queue.counts()
    lines = [
        f"queue initialised at {queue.root}",
        f"sweep: {spec.name}   spec: {spec.spec_hash()}   "
        f"scale: {spec.scale}",
        f"jobs enqueued: {counts.pending}",
    ]
    if adaptive is not None:
        lines.append(
            f"adaptive seeding: metric={args.ci_metric} "
            f"ci_threshold={args.ci_threshold} "
            f"max_seeds={args.max_seeds} seed_batch={args.seed_batch}"
        )
    lines.append(
        "drain with: repro queue work --queue-dir "
        f"{args.queue_dir} --cache-dir <shared store>"
    )
    return "\n".join(lines)


def _open_queue(args: argparse.Namespace) -> WorkQueue:
    # Commands without an --expiry-clock flag open under the default
    # wall clock; those with one (work, status) get a handle whose
    # heartbeat/liveness/scavenging judgements all share that clock.
    clock = getattr(args, "expiry_clock", "wall")
    try:
        return WorkQueue(args.queue_dir, clock=clock)
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(f"repro: error: {error}") from None


def _cmd_queue_work(args: argparse.Namespace) -> str:
    if getattr(args, "profile", None):
        # The executor's pool children inherit this through the
        # environment; active_profile_dir() re-reads it per process.
        os.environ[PROFILE_DIR_ENV] = str(args.profile)
    executor = get_default_executor()
    if executor.store is None:
        raise SystemExit(
            "repro: error: queue work needs a result store shared by all "
            "workers; pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    worker = QueueWorker(
        _open_queue(args),
        executor=executor,
        owner=args.owner,
        ttl=args.ttl,
        poll_interval=args.poll,
        max_jobs=args.max_jobs,
        wait=args.wait,
        max_attempts=args.max_attempts,
        expiry_clock=args.expiry_clock,
    )
    report = worker.run(install_signal_handlers=True)
    lines = [
        f"worker {report.owner} finished"
        + (" (signalled)" if report.stopped_by_signal else ""),
        f"processed: {report.processed}   simulated: {report.simulated}   "
        f"store hits: {report.store_hits}   "
        f"requeued expired: {report.requeued}"
        + (f"   failed: {report.failed}" if report.failed else ""),
    ]
    if report.manifest_path is not None:
        lines.append(f"manifest: {report.manifest_path}")
    else:
        lines.append("no manifest written (no jobs processed)")
    return "\n".join(lines)


def _cmd_queue_status(args: argparse.Namespace) -> str:
    status = queue_status(
        _open_queue(args), store_root=_resolve_cache_dir(args)
    )
    if args.json:
        return json.dumps(status, sort_keys=True, indent=1)
    return format_queue_status(status)


def _cmd_queue_top(args: argparse.Namespace) -> str:
    queue = _open_queue(args)
    frame = queue_top(queue)
    if args.json:
        return json.dumps(frame, sort_keys=True, indent=1)
    if args.once:
        return format_queue_top(frame)
    # Live mode: redraw in place until the queue drains or ^C.  Frames
    # chain (previous=frame) so per-worker jobs/min comes from counter
    # deltas rather than session averages.
    try:
        while True:
            print("\x1b[2J\x1b[H" + format_queue_top(frame), flush=True)
            if frame["status"]["drained"]:
                break
            time.sleep(args.interval)
            frame = queue_top(queue, previous=frame)
    except KeyboardInterrupt:
        pass
    return ""


def _cmd_queue_report(args: argparse.Namespace) -> str:
    # queue report promises zero new simulations; without the shared
    # store it would silently re-simulate every completed cell.
    cache_dir = _require_cache_dir(args, "queue report")
    queue = _open_queue(args)
    records = queue.done_records()
    try:
        summaries = queue_report(
            queue,
            executor=get_default_executor(),
            done_records=records,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    errors = sum(1 for r in records if r.get("state") == "error")
    header = (
        f"# queue: {queue.name}   spec: {queue.spec_hash}   "
        f"scale: {queue.spec.scale}   done: {len(records) - errors}"
        # An error-parked job must be visible here: the table below
        # silently omits its seed.
        + (f"   errors: {errors}" if errors else "")
    )
    if not summaries:
        body = header + "\nno completed cells yet"
    else:
        body = header + "\n" + format_sweep_table(summaries)
    if not args.figures:
        return body
    # Figures over the queue's *done records*, not the manifests:
    # manifests appear only when a worker session ends, so this is
    # what makes figure rendering work mid-drain.
    out_dir = args.figures_out or str(Path(cache_dir) / "figures")
    report = render_catalog(
        cache_dir,
        out_dir,
        formats=tuple(dict.fromkeys(args.formats)),
        cells=queue_cells(queue, records),
    )
    lines = [body, f"figures: {len(report.written)} files in {out_dir}"]
    lines.extend(f"figures skipped: {note}" for note in report.skipped)
    return "\n".join(lines)


def _cmd_queue_retry(args: argparse.Namespace) -> str:
    queue = _open_queue(args)
    if args.list:
        records = queue.error_records()
        payload = {
            "errors": records,
            "stranded": queue.stranded_jobs(),
        }
        if args.json:
            return json.dumps(payload, sort_keys=True, indent=1)
        if not records and not payload["stranded"]:
            return "no error-parked or stranded jobs"
        lines = [f"{'job id':<50} {'attempts':>8}  error"]
        for record in records:
            lines.append(
                f"{record.get('id', '?'):<50} "
                f"{record.get('attempts', '?'):>8}  "
                f"{record.get('error', '?')}"
            )
        for identifier in payload["stranded"]:
            lines.append(f"{identifier:<50} {'-':>8}  stranded (no state)")
        return "\n".join(lines)
    report = queue.retry_errors(ids=args.ids)
    if args.json:
        return json.dumps(
            {
                "requeued": list(report.requeued),
                "reticketed": list(report.reticketed),
                "skipped": [
                    {"id": identifier, "reason": reason}
                    for identifier, reason in report.skipped
                ],
            },
            sort_keys=True,
            indent=1,
        )
    lines = [
        f"requeued {len(report.requeued)} error-parked job(s) with a "
        "fresh attempts budget"
    ]
    lines.extend(f"  {identifier}" for identifier in report.requeued)
    if report.reticketed:
        lines.append(
            f"re-ticketed {len(report.reticketed)} stranded job(s)"
        )
        lines.extend(f"  {identifier}" for identifier in report.reticketed)
    for identifier, reason in report.skipped:
        lines.append(f"skipped {identifier}: {reason}")
    return "\n".join(lines)


def _cmd_queue_gc(args: argparse.Namespace) -> str:
    queue = _open_queue(args)
    extra_roots: list[str] = []
    cache_dir = _resolve_cache_dir(args)
    if cache_dir is not None:
        extra_roots.append(cache_dir)
        extra_roots.append(str(manifest_directory(cache_dir)))
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        # Covers the dot-temp event files a killed worker left behind
        # in its --telemetry directory.
        extra_roots.append(str(telemetry_dir))
    audit_dir = getattr(args, "audit", None)
    if audit_dir is not None:
        # Covers the two audit crash footprints: *.npz.tmp husks and
        # manifest-less shards from a worker killed mid-flush.
        extra_roots.append(str(audit_dir))
    report = queue.gc(
        prune=args.prune,
        temp_age=args.temp_age,
        extra_roots=tuple(extra_roots),
    )
    if args.json:
        return json.dumps(
            {
                "temp_files": [str(p) for p in report.temp_files],
                "stale_heartbeats": list(report.stale_heartbeats),
                "stranded_jobs": list(report.stranded_jobs),
                "pruned": report.pruned,
            },
            sort_keys=True,
            indent=1,
        )
    verb = "removed" if args.prune else "found"
    lines = [
        f"{verb} {len(report.temp_files)} orphaned temp file(s), "
        f"{len(report.stale_heartbeats)} stale heartbeat(s)"
    ]
    lines.extend(f"  temp: {path}" for path in report.temp_files)
    lines.extend(
        f"  heartbeat: {owner}" for owner in report.stale_heartbeats
    )
    if report.stranded_jobs:
        lines.append(
            f"{len(report.stranded_jobs)} stranded job(s) — re-ticket "
            "with 'repro queue retry':"
        )
        lines.extend(f"  {identifier}" for identifier in report.stranded_jobs)
    if report.clean:
        lines.append("queue directory is clean")
    return "\n".join(lines)


def _cmd_queue_fsck(args: argparse.Namespace) -> str:
    queue = _open_queue(args)
    cache_dir = _resolve_cache_dir(args)
    store = ResultStore(cache_dir) if cache_dir is not None else None
    report = fsck_queue(
        queue,
        store=store,
        repair=args.repair,
        temp_age=args.temp_age,
        max_attempts=args.max_attempts,
        audit_root=getattr(args, "audit", None),
    )
    if args.json:
        output = json.dumps(report.payload(), sort_keys=True, indent=1)
    else:
        checked = report.checked
        lines = [
            f"fsck {queue.root}: jobs {checked['jobs']}  "
            f"pending {checked['pending']}  leases {checked['leases']}  "
            f"done {checked['done']}  heartbeats {checked['heartbeats']}"
            + (
                f"  store entries {checked['store_entries']}"
                if store is not None
                else "  (no store checked; pass --cache-dir)"
            )
        ]
        if report.clean:
            lines.append("consistent: no violations")
        else:
            lines.append(
                f"{'kind':<18} {'repair':<24} subject"
            )
            for violation in report.violations:
                status = violation.repair + (
                    " (applied)" if violation.repaired else ""
                )
                lines.append(
                    f"{violation.kind:<18} {status:<24} "
                    f"{violation.subject}"
                )
                lines.append(f"{'':<18} {'':<24}   {violation.detail}")
            unrepaired = len(report.unrepaired)
            lines.append(
                f"{len(report.violations)} violation(s), "
                f"{len(report.violations) - unrepaired} repaired, "
                f"{unrepaired} unrepaired"
                + (
                    ""
                    if args.repair
                    else " (re-run with --repair to fix)"
                )
            )
        output = "\n".join(lines)
    if report.unrepaired:
        # The verdict must reach both humans and scripts: print the
        # report, then fail the process.
        print(output)
        raise SystemExit(1)
    return output


def _cmd_queue_fleet(args: argparse.Namespace) -> str:
    cache_dir = _require_cache_dir(args, "queue fleet")
    queue = _open_queue(args)  # fail fast before spawning anything
    prefix = args.owner_prefix or f"fleet-{os.getpid()}"
    worker_args = (
        "--ttl",
        str(args.ttl),
        "--max-attempts",
        str(args.max_attempts),
        "--expiry-clock",
        args.expiry_clock,
    )
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        worker_args += ("--telemetry", str(telemetry_dir))
    if args.profile is not None:
        worker_args += ("--profile", str(args.profile))
    audit_dir = getattr(args, "audit", None)
    if audit_dir is not None:
        worker_args += ("--audit", str(audit_dir))
    supervisor = FleetSupervisor(
        spawn_cli_worker(args.queue_dir, cache_dir, worker_args),
        count=args.count,
        restart_budget=args.restart_budget,
        backoff_base=args.backoff,
        owner_prefix=prefix,
        on_event=(
            None
            if args.json
            else lambda message: print(f"fleet: {message}", flush=True)
        ),
        # Advisory state file `queue top` folds into its fleet section.
        state_path=queue.root / FLEET_STATE_NAME,
    )
    report = supervisor.run(install_signal_handlers=True)
    counts = queue.counts()
    if args.json:
        output = json.dumps(
            {
                **report.payload(),
                "queue": {
                    "pending": counts.pending,
                    "leased": counts.leased,
                    "done": counts.done,
                },
            },
            sort_keys=True,
            indent=1,
        )
    else:
        if report.parked:
            verdict = (
                "parked: restart budget exhausted — the environment "
                "is killing workers faster than restarts help"
            )
        elif report.drained:
            verdict = "drained"
        else:
            verdict = "stopped" + (
                " (signalled)" if report.stopped_by_signal else ""
            )
        lines = [
            f"fleet {verdict}",
            f"children: {len(report.children)}   "
            f"restarts: {report.restarts}",
        ]
        for child in report.children:
            exit_note = (
                "" if child.exit_code is None
                else f" (exit {child.exit_code})"
            )
            lines.append(
                f"  {child.owner}: {child.state}{exit_note}"
                + (
                    f", {child.restarts} restart(s)"
                    if child.restarts
                    else ""
                )
            )
        lines.append(
            f"queue: pending {counts.pending}  leased {counts.leased}  "
            f"done {counts.done}"
        )
        output = "\n".join(lines)
    if report.parked:
        print(output)
        raise SystemExit(2)
    return output


def _cmd_store(args: argparse.Namespace) -> str:
    if args.store_command != "verify":  # pragma: no cover
        raise AssertionError(
            f"unhandled store command {args.store_command!r}"
        )
    cache_dir = _require_cache_dir(args, "store verify")
    store = ResultStore(cache_dir)
    report = store.verify(deep=not args.shallow)
    pruned = 0
    if args.prune and not report.clean:
        pruned = store.prune_invalid(report)
    if args.json:
        output = json.dumps(
            {
                "clean": report.clean,
                "entries": report.entries,
                "orphan_npz": list(report.orphan_npz),
                "orphan_json": list(report.orphan_json),
                "unreadable": list(report.unreadable),
                "pruned_files": pruned,
            },
            sort_keys=True,
            indent=1,
        )
    else:
        lines = [
            f"store {cache_dir}: {report.entries} complete entr"
            + ("y" if report.entries == 1 else "ies")
            + ("" if args.shallow else " (deep-read)")
        ]
        for label, keys in (
            ("orphan npz (interrupted put)", report.orphan_npz),
            ("orphan json (write order violated)", report.orphan_json),
            ("unreadable entries", report.unreadable),
        ):
            for key in keys:
                lines.append(f"  {label}: {key}")
        if report.clean:
            lines.append("store is clean")
        elif args.prune:
            lines.append(f"pruned {pruned} file(s)")
        else:
            lines.append(
                "store is unclean (re-run with --prune to remove; "
                "none of these can ever be served as a hit)"
            )
        output = "\n".join(lines)
    if not report.clean and not args.prune:
        print(output)
        raise SystemExit(1)
    return output


def _cmd_queue(args: argparse.Namespace) -> str:
    if args.queue_command == "init":
        return _cmd_queue_init(args)
    if args.queue_command == "work":
        _configure_executor(args)
        return _cmd_queue_work(args)
    if args.queue_command == "status":
        return _cmd_queue_status(args)
    if args.queue_command == "top":
        return _cmd_queue_top(args)
    if args.queue_command == "report":
        _configure_executor(args)
        return _cmd_queue_report(args)
    if args.queue_command == "retry":
        return _cmd_queue_retry(args)
    if args.queue_command == "gc":
        return _cmd_queue_gc(args)
    if args.queue_command == "fsck":
        return _cmd_queue_fsck(args)
    if args.queue_command == "fleet":
        return _cmd_queue_fleet(args)
    raise AssertionError(
        f"unhandled queue command {args.queue_command!r}"
    )  # pragma: no cover


def _scenario_config(scenario: str, scale: str):
    try:
        return scenario_catalog(scale, names=(scenario,))[scenario].config
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None


def _workload_payload(config) -> dict:
    """A workload spec as its manifest payload (None fields dropped)."""
    return {
        name: value
        for name, value in dataclasses.asdict(config.workload).items()
        if value is not None
    }


def _cmd_trace_record(args: argparse.Namespace) -> str:
    cache_dir = _require_cache_dir(args, "trace record")
    config = _scenario_config(args.scenario, args.scale)
    try:
        result = record_trace(
            config,
            args.method,
            args.seed,
            args.out,
            scenario=args.scenario,
            scale=args.scale,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    store = ResultStore(cache_dir)
    key = store.put(result, method=args.method)
    digest = trace_digest(args.out)
    spec = SweepSpec(
        name="trace-record",
        scenarios=(args.scenario,),
        methods=(args.method,),
        seeds=(args.seed,),
        scale=args.scale,
    )
    write_manifest(
        store.root,
        spec,
        environment_hash(spec),
        {"trace": str(args.out)},
        f"trace-record.{digest[:12]}",
        [
            {
                "scenario": args.scenario,
                "method": args.method,
                "seed": args.seed,
                "key": key,
                "state": "simulated",
            }
        ],
    )
    trace = load_trace(args.out)
    return "\n".join(
        [
            f"trace written to {args.out}",
            f"events: {trace.events} ({trace.issued} issued)   "
            f"digest: {digest[:16]}…",
            f"recording: {args.scenario} / {args.method} / seed "
            f"{args.seed} @ {args.scale}   fingerprint: "
            f"{trace.fingerprint[:16]}…",
            f"store: {key}",
            f"replay with: repro trace replay --trace {args.out} "
            f"--cache-dir <other store>",
        ]
    )


def _cmd_trace_replay(args: argparse.Namespace) -> str:
    cache_dir = _require_cache_dir(args, "trace replay")
    try:
        trace = load_trace(args.trace)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    scenario = args.scenario or trace.scenario
    scale = args.scale or trace.scale
    if scenario is None or scale is None:
        raise SystemExit(
            "repro: error: the trace records no scenario/scale "
            "provenance; pass --scenario and --scale"
        )
    if trace.engine_version != ENGINE_VERSION:
        raise SystemExit(
            f"repro: error: trace {args.trace} was recorded under "
            f"engine version {trace.engine_version!r}; this engine is "
            f"{ENGINE_VERSION!r} and replay would not be comparable"
        )
    base = _scenario_config(scenario, scale)
    try:
        config = replay_config(base, args.trace)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    methods = tuple(dict.fromkeys(args.methods))
    executor = get_default_executor()
    try:
        detailed = executor.run_detailed(
            [SimulationJob(config, method, trace.seed) for method in methods]
        )
    except ValueError as error:
        # Population/horizon mismatch against the replay environment.
        raise SystemExit(f"repro: error: {error}") from None
    store = ResultStore(cache_dir)
    spec = SweepSpec(
        name="trace-replay",
        scenarios=(scenario,),
        methods=methods,
        seeds=(trace.seed,),
        scale=scale,
    )
    entries = [
        {
            "scenario": scenario,
            "method": method,
            "seed": trace.seed,
            "key": store.key(config, method, trace.seed),
            "state": "store_hit" if hit else "simulated",
        }
        for method, (_, hit) in zip(methods, detailed)
    ]
    manifest_path = write_manifest(
        store.root,
        spec,
        environment_hash(spec),
        {
            "trace": str(args.trace),
            "trace_workload": _workload_payload(config),
        },
        f"trace-replay.{config.workload.trace_digest[:12]}",
        entries,
    )
    lines = [
        f"replayed {args.trace}: {scenario} @ {scale}, seed "
        f"{trace.seed}, {trace.events} events ({trace.issued} issued)"
    ]
    mismatch = False
    for method, (result, hit) in zip(methods, detailed):
        fingerprint = series_fingerprint(result)
        state = "store hit" if hit else "simulated"
        line = (
            f"  {method:<10} served {result.queries_served}/"
            f"{result.queries_issued}   fingerprint "
            f"{fingerprint[:16]}…   {state}"
        )
        if method == trace.method:
            if fingerprint == trace.fingerprint:
                line += "   byte-identical to the recording run"
            else:
                line += "   MISMATCH vs. the recording run"
                mismatch = True
        lines.append(line)
    lines.append(f"manifest: {manifest_path}")
    if mismatch:
        print("\n".join(lines))
        raise SystemExit(
            f"repro: error: replay under the recording method "
            f"{trace.method!r} did not reproduce the recording run's "
            "sampled series; the replay environment differs from the "
            "recorded one (wrong --scenario/--scale, or a code change "
            "that requires an ENGINE_VERSION bump)"
        )
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> str:
    if args.trace_command == "record":
        return _cmd_trace_record(args)
    if args.trace_command == "replay":
        return _cmd_trace_replay(args)
    raise AssertionError(
        f"unhandled trace command {args.trace_command!r}"
    )  # pragma: no cover


def _resolve_store(args: argparse.Namespace, command: str) -> str:
    """The store an analyze command reads: --store, else the cache env.

    Analysis is read-only by contract, so a missing directory is a
    user error to refuse loudly — there is nothing sensible to create.
    """
    store = args.store or os.environ.get(CACHE_DIR_ENV) or None
    if store is None:
        raise SystemExit(
            f"repro: error: {command} needs --store or $REPRO_CACHE_DIR"
        )
    if not Path(store).is_dir():
        raise SystemExit(
            f"repro: error: no result store at {store}"
        )
    return store


def _cmd_analyze_series(args: argparse.Namespace) -> str:
    store_root = _resolve_store(args, "analyze series")
    try:
        cells, stale = cells_from_store(store_root)
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    if args.scenarios is not None:
        cells = [c for c in cells if c.scenario in set(args.scenarios)]
    if args.methods is not None:
        cells = [c for c in cells if c.method in set(args.methods)]
    if not cells:
        raise SystemExit(
            f"repro: error: no matching cells under {store_root} "
            "(no manifests, or the filters excluded everything)"
        )
    store = ResultStore(store_root)
    try:
        bands = [cell_band(store, cell, args.series) for cell in cells]
    except KeyError as error:
        # A typo'd --series must not masquerade as missing store data.
        raise SystemExit(f"repro: error: {error.args[0]}") from None
    if args.json:
        return json.dumps(
            {
                "series": args.series,
                "stale_manifests": stale,
                "cells": [band_payload(band) for band in bands],
            },
            sort_keys=True,
            indent=1,
            allow_nan=False,
        )
    blocks = [
        format_band_table(band, max_rows=args.max_rows) for band in bands
    ]
    if stale:
        blocks.append(
            f"({stale} stale manifest(s) skipped: results written "
            "under a different engine version)"
        )
    return "\n\n".join(blocks)


def _cmd_analyze_figures(args: argparse.Namespace) -> str:
    store_root = _resolve_store(args, "analyze figures")
    out_dir = args.out or str(Path(store_root) / "figures")
    try:
        report = render_catalog(
            store_root,
            out_dir,
            formats=tuple(dict.fromkeys(args.formats)),
            only=tuple(args.only) if args.only else None,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    lines = [f"rendered {len(report.written)} file(s) into {out_dir}"]
    lines.extend(f"  {path}" for path in report.written)
    lines.extend(f"skipped: {note}" for note in report.skipped)
    if report.stale_manifests:
        lines.append(
            f"({report.stale_manifests} stale manifest(s) skipped)"
        )
    if not report.written:
        raise SystemExit(
            "\n".join(lines)
            + "\nrepro: error: nothing could be rendered"
        )
    return "\n".join(lines)


def _cmd_analyze_compare(args: argparse.Namespace) -> str:
    for root in (args.store_a, args.store_b):
        if not Path(root).is_dir():
            raise SystemExit(f"repro: error: no result store at {root}")
    thresholds = dict(args.threshold) if args.threshold else None
    try:
        report = compare_stores(
            args.store_a,
            args.store_b,
            metrics=tuple(dict.fromkeys(args.metrics)),
            thresholds=thresholds,
            default_threshold=args.default_threshold,
        )
    except ValueError as error:
        raise SystemExit(f"repro: error: {error}") from None
    # A gate that found nothing to compare must fail, not pass: "OK
    # over zero cells" is exactly what a typo'd store path, a store
    # with no manifests, or two stores swept with disjoint seed sets
    # (every verdict incomparable) would silently produce.
    if not report.verdicts:
        raise SystemExit(
            "repro: error: the stores share no comparable cells "
            f"({len(report.only_in_a)} cell(s) only in A, "
            f"{len(report.only_in_b)} only in B); are both paths "
            "manifested result stores for the same sweep?"
        )
    if all(v.status == "incomparable" for v in report.verdicts):
        raise SystemExit(
            "repro: error: every shared cell is incomparable (no "
            "paired non-NaN seeds); were the stores swept with "
            "disjoint seed sets?"
        )
    if args.json:
        output = json.dumps(
            report.payload(), sort_keys=True, indent=1, allow_nan=False
        )
    else:
        output = format_compare_table(report)
    if not report.ok:
        # The verdict must reach both humans and scripts: print the
        # table/payload, then fail the process.
        print(output)
        raise SystemExit(1)
    return output


def _cmd_analyze(args: argparse.Namespace) -> str:
    if args.analyze_command == "series":
        return _cmd_analyze_series(args)
    if args.analyze_command == "figures":
        return _cmd_analyze_figures(args)
    if args.analyze_command == "compare":
        return _cmd_analyze_compare(args)
    raise AssertionError(
        f"unhandled analyze command {args.analyze_command!r}"
    )  # pragma: no cover


def _audit_bundle_payloads(path: str) -> list[dict]:
    """Report payloads for every audit shard at ``path`` (file or dir)."""
    target = Path(path)
    if target.is_dir():
        manifests = audit_reports.find_shards(target)
        if not manifests:
            raise audit_reports.AuditReadError(
                f"no audit shards under {target}"
            )
        return [
            audit_reports.report_payload(audit_reports.load_shard(manifest))
            for manifest in manifests
        ]
    return [audit_reports.report_payload(audit_reports.load_shard(target))]


def _write_audit_json(out: str, payload: dict) -> None:
    """Deterministic JSON render: double renders are byte-identical."""
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    atomic_write(out, (text + "\n").encode("utf-8"))


def _cmd_audit(args: argparse.Namespace) -> str:
    try:
        if args.audit_command == "report":
            shard = audit_reports.resolve_shard(
                args.path, method=args.method
            )
            payload = audit_reports.report_payload(shard)
            lines = [audit_reports.format_report(payload)]
            if args.json is not None:
                _write_audit_json(args.json, payload)
                lines.append(f"payload written to {args.json}")
            return "\n".join(lines)
        if args.audit_command == "explain":
            shard = audit_reports.resolve_shard(
                args.path, method=args.method
            )
            payload = audit_reports.explain_payload(shard, args.index)
            return audit_reports.format_explain(payload)
        if args.audit_command == "diff":
            shard_a = audit_reports.resolve_shard(
                args.path_a, method=args.method_a
            )
            shard_b = audit_reports.resolve_shard(
                args.path_b, method=args.method_b
            )
            payload = audit_reports.diff_payload(shard_a, shard_b)
            lines = [audit_reports.format_diff(payload)]
            if args.json is not None:
                _write_audit_json(args.json, payload)
                lines.append(f"payload written to {args.json}")
            return "\n".join(lines)
    except (OSError, audit_reports.AuditReadError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    raise AssertionError(
        f"unhandled audit command {args.audit_command!r}"
    )  # pragma: no cover


def _cmd_telemetry(args: argparse.Namespace) -> str:
    try:
        if args.telemetry_command == "report":
            report = telemetry_report(args.events_dir)
            if args.json:
                return json.dumps(report, sort_keys=True, indent=1)
            return format_telemetry_report(report)
        if args.telemetry_command == "merge":
            summary = merge_events(args.events_dir, out=args.out)
            if args.json:
                return json.dumps(summary, sort_keys=True, indent=1)
            return (
                f"merged {summary['events']} events from "
                f"{summary['files']} files into {summary['out']} "
                f"(stream digest {summary['digest']})"
            )
        if args.telemetry_command == "timeline":
            timeline = timeline_from_path(args.path)
            if args.json:
                return json.dumps(timeline, sort_keys=True, indent=1)
            return format_timeline(timeline)
        if args.telemetry_command == "hotspots":
            try:
                hotspots = collect_hotspots(args.profile_dir, top=args.top)
            except FileNotFoundError as error:
                raise SystemExit(f"repro: error: {error}") from None
            if args.json:
                return json.dumps(hotspots, sort_keys=True, indent=1)
            return format_hotspots(hotspots)
        if args.telemetry_command == "bundle":
            bench = None
            if args.bench is not None:
                try:
                    with open(args.bench, encoding="utf-8") as handle:
                        bench = json.load(handle)
                except (OSError, json.JSONDecodeError) as error:
                    raise SystemExit(
                        f"repro: error: cannot read bench baseline "
                        f"{args.bench}: {error}"
                    ) from None
            bench_history = None
            if args.bench_history is not None:
                try:
                    bench_history = load_history(args.bench_history)
                except OSError as error:
                    raise SystemExit(
                        f"repro: error: cannot read bench history "
                        f"{args.bench_history}: {error}"
                    ) from None
            audit = None
            if args.audit_shards is not None:
                try:
                    audit = _audit_bundle_payloads(args.audit_shards)
                except audit_reports.AuditReadError as error:
                    raise SystemExit(
                        f"repro: error: {error}"
                    ) from None
            path = write_bundle(
                args.out,
                load_stream(args.path),
                bench=bench,
                title=args.title,
                bench_history=bench_history,
                audit=audit,
            )
            return f"bundle written to {path}"
    except (OSError, TelemetryReadError) as error:
        raise SystemExit(f"repro: error: {error}") from None
    raise AssertionError(
        f"unhandled telemetry command {args.telemetry_command!r}"
    )  # pragma: no cover


def _cmd_perf(args: argparse.Namespace) -> str:
    if getattr(args, "perf_command", None) == "history":
        try:
            rows = load_history(args.file)
        except OSError as error:
            raise SystemExit(
                f"repro: error: cannot read history {args.file}: {error}"
            ) from None
        if args.json:
            return json.dumps(rows, sort_keys=True, indent=1)
        return format_history(rows)
    report = run_perf(
        quick=args.quick, repeats=args.repeats, phases=not args.no_phases
    )
    lines = [format_report(report)]
    if args.history:
        append_history(report, args.history)
        lines.append(f"history row appended to {args.history}")
    if args.profile:
        lines.append("")
        lines.append(f"cProfile top {args.profile} (captive_small/sqlb):")
        lines.append(profile_run(top=args.profile))
    if args.out:
        write_report(report, args.out)
        lines.append(f"report written to {args.out}")
    if args.check:
        try:
            baseline = load_report(args.check)
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(
                f"repro: error: cannot read baseline {args.check}: {error}"
            ) from None
        problems = compare_reports(
            report, baseline, tolerance=args.tolerance
        )
        if problems:
            print("\n".join(lines))
            raise SystemExit(
                "repro: perf regression against "
                f"{args.check}:\n  " + "\n  ".join(problems)
            )
        lines.append(
            f"no regression against {args.check} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return "\n".join(lines)


def _cmd_sweep_report(args: argparse.Namespace) -> str:
    spec = _spec_from_args(args)
    summaries = sweep_summary(spec, executor=get_default_executor())
    header = (
        f"# sweep: {spec.name}   spec: {spec.spec_hash()}   "
        f"scale: {spec.scale}   seeds: {len(spec.seeds)}"
    )
    return header + "\n" + format_sweep_table(summaries)


def _cmd_sweep(args: argparse.Namespace) -> str:
    if args.sweep_command == "run":
        _configure_executor(args)
        return _cmd_sweep_run(args)
    if args.sweep_command == "status":
        return _cmd_sweep_status(args)
    if args.sweep_command == "merge":
        return _cmd_sweep_merge(args)
    if args.sweep_command == "report":
        _configure_executor(args)
        return _cmd_sweep_report(args)
    raise AssertionError(
        f"unhandled sweep command {args.sweep_command!r}"
    )  # pragma: no cover


def _configure_executor(args: argparse.Namespace) -> None:
    """Install the default executor the simulation commands run through.

    Flags win; unset flags fall back to the ``REPRO_WORKERS`` /
    ``REPRO_CACHE_DIR`` environment knobs, symmetrically.
    """
    if getattr(args, "workers", None) is not None:
        workers = args.workers
    else:
        try:
            workers = workers_from_environment()
        except ValueError as error:
            raise SystemExit(f"repro: error: {error}") from None
    configure_default_executor(
        workers=workers, cache_dir=_resolve_cache_dir(args)
    )
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        # Through the environment as well as directly: pool children
        # (and any subprocess this command spawns) resolve their own
        # Telemetry instance from $REPRO_TELEMETRY_DIR on first use.
        os.environ[TELEMETRY_DIR_ENV] = str(telemetry_dir)
        configure_telemetry(telemetry_dir)
    audit_dir = getattr(args, "audit", None)
    if audit_dir is not None:
        # Same split as telemetry: environment for pool children and
        # spawned subprocesses, direct configure for this process.
        os.environ[AUDIT_DIR_ENV] = str(audit_dir)
        configure_audit(audit_dir)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "methods":
        print(_cmd_methods())
    elif args.command == "run":
        _configure_executor(args)
        print(_cmd_run(args))
    elif args.command == "figure":
        _configure_executor(args)
        print(_cmd_figure(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command == "queue":
        print(_cmd_queue(args))
    elif args.command == "store":
        print(_cmd_store(args))
    elif args.command == "trace":
        _configure_executor(args)
        print(_cmd_trace(args))
    elif args.command == "analyze":
        print(_cmd_analyze(args))
    elif args.command == "telemetry":
        print(_cmd_telemetry(args))
    elif args.command == "audit":
        print(_cmd_audit(args))
    elif args.command == "perf":
        print(_cmd_perf(args))
    return 0
