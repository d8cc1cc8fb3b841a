"""Shard execution and manifests.

``SweepRunner`` routes one shard of a sweep through the configured
:class:`~repro.experiments.executor.ExperimentExecutor` — so shards get
the process pool and the persistent result store for free — and records
a JSON *manifest* next to the store describing exactly what the shard
ran: the spec payload and hash, the engine version, and one entry per
job with its store key and whether it was simulated or served from the
store.

Manifests make sweeps resumable and auditable with zero coordination:

* Re-running an interrupted shard re-simulates only the jobs whose
  results never reached the store; the fresh manifest shows everything
  else as a ``store_hit``.
* ``status`` (CLI) reads the manifests under a cache directory and
  reports per-shard completion without touching a single result file.
* The aggregation layer (:mod:`repro.sweeps.aggregate`) merges
  manifests from different machines' store directories by spec hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.experiments.executor import (
    ExperimentExecutor,
    get_default_executor,
)
from repro.experiments.store import cache_key, key_scope
from repro.reliability.durability import atomic_write
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.spec import SweepSpec
from repro.telemetry.tracing import mint_trace_id

__all__ = [
    "MANIFEST_DIR_NAME",
    "MANIFEST_FORMAT",
    "ShardReport",
    "SweepRunner",
    "environment_hash",
    "load_manifests",
    "manifest_cells",
    "manifest_directory",
    "manifest_status",
    "write_manifest",
]


def environment_hash(
    spec: SweepSpec, base: SimulationConfig | None = None
) -> str:
    """Fingerprint of the *effective* scenario environments (8 hex chars).

    ``run_shard`` accepts a ``base`` config override, which changes
    every job while leaving the spec payload untouched; folding this
    hash into the manifest identity keeps a spec-only run and an
    overridden run from overwriting each other's manifests.  Derived
    from the fully built scenario configs, so it is identical across
    machines whenever the effective environments are.
    """
    configs = {
        name: dataclasses.asdict(config)
        for name, config in spec.configs(base).items()
    }
    canonical = json.dumps(configs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]

#: Subdirectory of a result-store root where manifests live.  The store
#: only globs top-level files, so manifests never collide with entries.
MANIFEST_DIR_NAME = "manifests"

#: Bump when the manifest JSON schema changes incompatibly.  Shared
#: with the scheduler's worker manifests, which use the same format.
MANIFEST_FORMAT = 1


def manifest_directory(store_root: Path | str) -> Path:
    """Where a store directory keeps its sweep manifests."""
    return Path(store_root) / MANIFEST_DIR_NAME


@dataclasses.dataclass(frozen=True)
class ShardReport:
    """What one shard execution did."""

    spec: SweepSpec
    shard_index: int
    shard_count: int
    jobs: int
    simulated: int
    store_hits: int
    manifest_path: Path | None

    @property
    def all_store_hits(self) -> bool:
        """True when the shard re-simulated nothing (fully warm)."""
        return self.simulated == 0 and self.jobs > 0


class SweepRunner:
    """Executes sweep shards through an experiment executor.

    Parameters
    ----------
    executor:
        The executor to route jobs through; ``None`` (default) uses the
        process-wide default executor, which the CLI and benchmarks
        configure with ``--workers`` / ``--cache-dir``.
    """

    def __init__(self, executor: ExperimentExecutor | None = None) -> None:
        self._executor = executor

    @property
    def executor(self) -> ExperimentExecutor:
        return (
            self._executor
            if self._executor is not None
            else get_default_executor()
        )

    @key_scope()
    def run_shard(
        self,
        spec: SweepSpec,
        shard_index: int = 0,
        shard_count: int = 1,
        base: SimulationConfig | None = None,
    ) -> ShardReport:
        """Run one shard; returns counts and the manifest path.

        Jobs already present in the executor's store are recorded as
        ``store_hit`` and cost one disk read; the rest are simulated
        (fanning out over the executor's pool) and persisted.  With a
        store-less executor the shard still runs, but no manifest can be
        written — resumability needs the store.
        """
        executor = self.executor
        store = executor.store
        sweep_jobs = spec.shard(shard_index, shard_count, base)
        spec_hash = spec.spec_hash()

        # run_detailed reports the executor's own ground truth per job
        # (an unreadable store entry is a miss and gets re-simulated),
        # so the manifest states always match what actually happened.
        # Each job carries a trace id minted from the sweep identity —
        # trace is compare=False, so store keys and results are
        # untouched; it only correlates this shard's telemetry.
        detailed = executor.run_detailed(
            [
                dataclasses.replace(
                    sj.job,
                    trace=mint_trace_id(
                        "sweep",
                        spec_hash,
                        sj.scenario,
                        sj.job.method,
                        sj.job.seed,
                    ),
                )
                for sj in sweep_jobs
            ]
        )
        warm = [hit for _, hit in detailed]

        entries = [
            {
                "scenario": sj.scenario,
                "method": sj.job.method,
                "seed": sj.job.seed,
                "key": cache_key(sj.job.config, sj.job.method, sj.job.seed),
                "state": "store_hit" if hit else "simulated",
            }
            for sj, hit in zip(sweep_jobs, warm)
        ]

        manifest_path: Path | None = None
        if store is not None:
            manifest_path = self._write_manifest(
                store.root,
                spec,
                environment_hash(spec, base),
                shard_index,
                shard_count,
                entries,
            )

        store_hits = sum(warm)
        return ShardReport(
            spec=spec,
            shard_index=shard_index,
            shard_count=shard_count,
            jobs=len(sweep_jobs),
            simulated=len(sweep_jobs) - store_hits,
            store_hits=store_hits,
            manifest_path=manifest_path,
        )

    @staticmethod
    def _write_manifest(
        store_root: Path,
        spec: SweepSpec,
        env_hash: str,
        shard_index: int,
        shard_count: int,
        entries: list[dict],
    ) -> Path:
        return write_manifest(
            store_root,
            spec,
            env_hash,
            {"shard_index": shard_index, "shard_count": shard_count},
            f"shard{shard_index:04d}of{shard_count:04d}",
            entries,
        )


def write_manifest(
    store_root: Path,
    spec: SweepSpec,
    env_hash: str,
    identity: dict,
    name_suffix: str,
    entries: list[dict],
) -> Path:
    """The one manifest writer: schema, filename scheme, atomic write.

    Shard manifests pass shard coordinates in ``identity``; the
    scheduler's worker manifests pass ``worker``/``queue`` fields.
    Sharing the writer is what keeps the two manifest kinds one format
    — a schema change lands in both or neither.
    """
    directory = manifest_directory(store_root)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MANIFEST_FORMAT,
        "sweep": spec.name,
        "spec": spec.payload(),
        "spec_hash": spec.spec_hash(),
        "environment_hash": env_hash,
        "engine_version": ENGINE_VERSION,
        "completed": True,
        "jobs": entries,
        **identity,
    }
    path = directory / f"{spec.spec_hash()}.{env_hash}.{name_suffix}.json"
    atomic_write(
        path, json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
    )
    return path


def load_manifests(store_root: Path | str) -> list[dict]:
    """Every readable manifest under a store directory, sorted by name.

    Unreadable or schema-mismatched files are skipped (a crashed writer
    never blocks status reporting).
    """
    directory = manifest_directory(store_root)
    manifests = []
    if not directory.is_dir():
        return manifests
    for path in sorted(directory.glob("*.json")):
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(manifest, dict) or "jobs" not in manifest:
            continue
        if manifest.get("format") != MANIFEST_FORMAT:
            continue
        manifest["path"] = str(path)
        manifests.append(manifest)
    return manifests


def manifest_cells(
    manifests: list[dict],
) -> tuple[list[dict], int]:
    """The sweep cells a set of manifests declares: the read contract.

    Manifests — shard and worker manifests alike — are the *only*
    record of which (scenario, method, seed) triples a store was
    populated with, so everything that reads a store without a spec in
    hand (the analysis layer's series extraction, figure rendering,
    cross-store comparison) goes through this function, exactly as all
    status reporting goes through :func:`manifest_status`.

    Returns ``(rows, stale)``: one row per (scenario, method) cell with
    its deduplicated sorted ``seeds`` and the distinct spec payloads
    (by ``spec_hash``) that declared it, plus how many manifests were
    skipped as *stale* — written under a different engine version,
    whose results are unreachable under current store keys and must
    not be reported as "missing" cells.

    Trace-replay manifests (``repro trace replay``) carry a top-level
    ``trace_workload`` payload — the ``kind="trace"`` workload their
    results were keyed under.  Each row's ``trace_workloads`` lists the
    distinct such payloads that declared the cell (``None`` for a plain
    sweep manifest); the store reader uses it to rebuild the replay
    config, and refuses cells with conflicting declarations.
    """
    stale = 0
    cells: dict[tuple[str, str], dict] = {}
    for manifest in manifests:
        if manifest.get("engine_version") != ENGINE_VERSION:
            stale += 1
            continue
        spec_payload = manifest.get("spec")
        spec_hash = manifest.get("spec_hash")
        trace_payload = manifest.get("trace_workload")
        trace_key = (
            None
            if trace_payload is None
            else json.dumps(trace_payload, sort_keys=True)
        )
        for job in manifest["jobs"]:
            cell = cells.setdefault(
                (job["scenario"], job["method"]),
                {
                    "scenario": job["scenario"],
                    "method": job["method"],
                    "seeds": set(),
                    "specs": {},
                    "traces": {},
                },
            )
            cell["seeds"].add(int(job["seed"]))
            if spec_payload is not None:
                cell["specs"].setdefault(spec_hash, spec_payload)
            cell["traces"].setdefault(trace_key, trace_payload)
    rows = []
    for _, cell in sorted(cells.items()):
        rows.append(
            {
                "scenario": cell["scenario"],
                "method": cell["method"],
                "seeds": tuple(sorted(cell["seeds"])),
                "specs": [
                    cell["specs"][key] for key in sorted(cell["specs"])
                ],
                "trace_workloads": [
                    cell["traces"][key]
                    for key in sorted(
                        cell["traces"], key=lambda k: (k is not None, k)
                    )
                ],
            }
        )
    return rows, stale


def manifest_status(manifests: list[dict]) -> list[dict]:
    """Per-manifest counts as plain JSON-ready rows.

    The single parser behind both ``repro sweep status`` (table and
    ``--json``) and the scheduler's monitor, so the CLI, CI assertions,
    and the queue tooling all read one schema.  ``shard_index`` /
    ``shard_count`` are ``None`` for worker manifests (which carry
    ``worker`` instead), and vice versa; trace record/replay manifests
    carry ``trace`` (the trace-file path) in place of both.
    """
    rows = []
    for manifest in manifests:
        states = [job["state"] for job in manifest["jobs"]]
        engine = manifest.get("engine_version")
        rows.append(
            {
                "sweep": manifest.get("sweep"),
                "spec_hash": manifest.get("spec_hash"),
                "shard_index": manifest.get("shard_index"),
                "shard_count": manifest.get("shard_count"),
                "worker": manifest.get("worker"),
                "trace": manifest.get("trace"),
                "jobs": len(states),
                "simulated": states.count("simulated"),
                "store_hits": states.count("store_hit"),
                "engine_version": engine,
                "stale": engine != ENGINE_VERSION,
                "path": manifest.get("path"),
            }
        )
    return rows
