"""Parallel experiment execution over a persistent result store.

The paper's evaluation repeats every (environment, method) simulation
``nbRepeat = 10`` times and sweeps many configurations; runs are
embarrassingly parallel and fully deterministic given
``(config, method, seed)``.  This module fans those jobs out over a
:class:`concurrent.futures.ProcessPoolExecutor` and consults a
:class:`~repro.experiments.store.ResultStore` first, so

* repeated requests for the same run — within one process or across
  interpreter sessions — cost one disk read instead of a simulation, and
* cold runs use every core instead of one.

``workers=1`` (the default) falls back to plain in-process execution so
CI, debugging, and doctest-style usage stay simple and fork-free.  The
parallel path produces bit-identical results to the serial path: both
call :func:`~repro.simulation.engine.run_simulation` on the same inputs
and the engine is deterministic.

The experiment harness (:mod:`repro.experiments.harness`) routes every
simulation through the module-level *default executor*, which the CLI
(``--workers`` / ``--cache-dir`` / ``--no-cache``) and the benchmark
suite configure via :func:`configure_default_executor`.
"""

from __future__ import annotations

import copy
import os
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro._checks import check_number
from repro.audit.recorder import get_audit
from repro.experiments.store import ResultStore, cache_key, key_scope
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationResult, run_simulation
from repro.telemetry.profiling import active_profile_dir, profile_job
from repro.telemetry.registry import get_telemetry
from repro.telemetry.tracing import trace_scope

__all__ = [
    "ExperimentExecutor",
    "SimulationJob",
    "configure_default_executor",
    "get_default_executor",
    "set_default_executor",
]

#: Environment knobs for the implicit default executor: number of pool
#: workers and (optionally) a persistent cache directory.
WORKERS_ENV = "REPRO_WORKERS"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def workers_from_environment() -> int:
    """Pool size according to ``REPRO_WORKERS`` (unset/empty → 1).

    Any other value must be a positive integer, as ``--workers`` must:
    ``0``, ``-3``, ``1.5`` or ``nan`` raise ``ValueError`` naming the
    variable rather than quietly meaning one worker.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = raw  # refused below, by name
    check_number(None, WORKERS_ENV, workers, integer=True, gt=0)
    return workers


@dataclass(frozen=True)
class SimulationJob:
    """One deterministic unit of work: run ``method`` on ``config``.

    ``method`` is a registry *name* (not an instance) so jobs are
    hashable, picklable across process boundaries, and content-hashable
    by the result store.

    ``trace`` is an optional fleet-wide correlation id (minted at
    enqueue/sweep time); it is excluded from equality and hashing so
    the store's cache key — and therefore bit-identity with untraced
    runs — is untouched by tracing.
    """

    config: SimulationConfig
    method: str
    seed: int
    trace: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.method, str):
            raise TypeError(
                "SimulationJob.method must be a registry name string, "
                f"got {type(self.method).__name__}; pass AllocationMethod "
                "instances to run_simulation directly"
            )


def _execute_job(job: SimulationJob) -> SimulationResult:
    """Top-level worker entry point (must be picklable).

    Both the serial path and every pool child run jobs through here, so
    this is where each simulation gets its telemetry "cell" span, job
    wall-time observation, and a per-job flush (pool children fork, so
    waiting for process exit to flush would lose everything).  The
    job's trace scope is installed around the span so every event the
    engine emits underneath — run and phase spans included — carries
    the job's fleet-wide trace id.  Per-job cProfile capture
    (``$REPRO_PROFILE_DIR``) rides the same entry point; with both
    switches off this function is one ``None`` check away from the
    bare simulation call.
    """
    telemetry = get_telemetry()
    profile_dir = active_profile_dir()
    audit = get_audit()
    if telemetry is None and profile_dir is None and audit is None:
        return run_simulation(job.config, job.method, seed=job.seed)
    with trace_scope(job.trace), profile_job(profile_dir):
        if telemetry is None:
            result = run_simulation(job.config, job.method, seed=job.seed)
        else:
            started = perf_counter()
            with telemetry.span(
                "cell",
                f"{job.method}/seed{job.seed}",
                attrs={"method": job.method, "seed": job.seed},
            ):
                result = run_simulation(job.config, job.method, seed=job.seed)
            telemetry.count("executor.jobs")
            telemetry.observe("executor.job_s", perf_counter() - started)
            telemetry.flush()
    if audit is not None:
        # The engine buffered this run's decisions; the shard is named
        # by the job's *store* cache key so it sits next to its result
        # entry.  Committed here — not in the engine — because only the
        # executor knows the registry method name the key is built from,
        # and because pool children must flush before the job returns.
        audit.commit(
            cache_key(job.config, job.method, job.seed),
            job.method,
            job.config,
        )
    return result


class ExperimentExecutor:
    """Runs simulation jobs, consulting a store and fanning out a pool.

    Parameters
    ----------
    workers:
        Process-pool size.  ``1`` (default) executes in-process, with no
        pool and no pickling — the exact pre-existing serial path.
    store:
        Optional :class:`ResultStore`; completed runs are read from and
        written to it.  ``None`` disables persistence.

    ``simulations_run`` counts the jobs this executor actually simulated
    (store hits excluded), which is what the warm-cache tests assert on.
    """

    def __init__(
        self, workers: int = 1, store: ResultStore | None = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.store = store
        self.simulations_run = 0

    @classmethod
    def from_environment(cls) -> "ExperimentExecutor":
        """Build an executor from ``REPRO_WORKERS``/``REPRO_CACHE_DIR``."""
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        store = ResultStore(cache_dir) if cache_dir else None
        return cls(workers=workers_from_environment(), store=store)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ExperimentExecutor(workers={self.workers}, "
            f"store={self.store!r}, simulations_run={self.simulations_run})"
        )

    # -- execution ---------------------------------------------------

    def run(self, jobs: Iterable[SimulationJob]) -> list[SimulationResult]:
        """Execute every job, order-preserving.

        Store hits are returned directly; each distinct remaining run
        (one cache key, however often the batch repeats it) is simulated
        once, in the process pool (or inline when ``workers == 1`` or
        only one run is pending).  Each completed simulation is
        persisted as soon as it finishes — an interrupt mid-batch loses
        at most the in-flight runs, never the completed ones.
        """
        return [result for result, _ in self.run_detailed(jobs)]

    @key_scope()
    def run_detailed(
        self, jobs: Iterable[SimulationJob]
    ) -> list[tuple[SimulationResult, bool]]:
        """Like :meth:`run`, also reporting which jobs were store hits.

        Returns ``(result, store_hit)`` per job, order-preserving.  The
        flag is the executor's own ground truth (a ``True`` means the
        result came from the store without simulation), so callers —
        the sweep manifests — never need a second store read to
        classify jobs.  The batch's gets and puts share one
        :func:`~repro.experiments.store.key_scope`.
        """
        jobs = list(jobs)
        results: list[SimulationResult | None] = [None] * len(jobs)

        # Misses by cache key, so a run the batch repeats is simulated
        # and put once.  Not by job equality: ``duration=40`` and
        # ``duration=40.0`` are equal jobs with different keys.
        misses: dict[str, list[int]] = {}
        for position, job in enumerate(jobs):
            cached = (
                self.store.get(job.config, job.method, job.seed)
                if self.store is not None
                else None
            )
            if cached is not None:
                results[position] = cached
            else:
                key = cache_key(job.config, job.method, job.seed)
                misses.setdefault(key, []).append(position)

        if not misses:
            # Store hits are counted in *this* process while per-job
            # flushes happen in _execute_job (possibly a pool child) —
            # a fully-warm batch would otherwise never persist them.
            self._flush_telemetry()
            return [(result, True) for result in results]  # type: ignore[misc]

        def finish(positions: list[int], result: SimulationResult) -> None:
            first, *repeats = positions
            results[first] = self._complete(jobs[first], result)
            for position in repeats:
                # An independent copy, as a second simulation would
                # return, carrying this job's own config object.
                results[position] = copy.deepcopy(
                    result, {id(result.config): jobs[position].config}
                )

        if self.workers == 1 or len(misses) == 1:
            for positions in misses.values():
                finish(positions, _execute_job(jobs[positions[0]]))
        else:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(misses))
            ) as pool:
                futures = {
                    pool.submit(_execute_job, jobs[positions[0]]): positions
                    for positions in misses.values()
                }
                for future in as_completed(futures):
                    finish(futures[future], future.result())
        simulated = {
            position for positions in misses.values() for position in positions
        }
        # Pool children flushed their own counters job-by-job; this
        # persists the parent's share (store hits/misses, put bytes).
        self._flush_telemetry()
        return [
            (result, position not in simulated)
            for position, result in enumerate(results)
        ]  # type: ignore[misc]

    @staticmethod
    def _flush_telemetry() -> None:
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.flush()

    def _complete(
        self, job: SimulationJob, result: SimulationResult
    ) -> SimulationResult:
        self.simulations_run += 1
        # A pool child returns an equal copy of the job's config; the
        # job's own object is what the serial path and ``get`` return,
        # and the one the open key scope has already serialized.
        result.config = job.config
        if self.store is not None:
            # Key by the job's registry name, not the method object's
            # class-level name — registry aliases share the latter.
            self.store.put(result, method=job.method)
        return result

    def run_one(
        self, config: SimulationConfig, method: str, seed: int
    ) -> SimulationResult:
        """Convenience wrapper for a single (config, method, seed) run."""
        return self.run([SimulationJob(config, method, seed)])[0]


# ---------------------------------------------------------------------
# default executor
# ---------------------------------------------------------------------

_default_executor: ExperimentExecutor | None = None


def get_default_executor() -> ExperimentExecutor:
    """The process-wide executor the harness routes through.

    Created lazily from the environment (``REPRO_WORKERS``,
    ``REPRO_CACHE_DIR``) on first use; defaults to serial, store-less
    execution — exactly the historical behaviour.
    """
    global _default_executor
    if _default_executor is None:
        _default_executor = ExperimentExecutor.from_environment()
    return _default_executor


def set_default_executor(executor: ExperimentExecutor | None) -> None:
    """Replace the default executor (``None`` resets to lazy env-based)."""
    global _default_executor
    _default_executor = executor


def configure_default_executor(
    workers: int = 1, cache_dir: str | Path | None = None
) -> ExperimentExecutor:
    """Install and return a default executor with these settings.

    ``cache_dir=None`` disables the persistent store; any path enables
    it (the directory is created on first write).
    """
    store = ResultStore(cache_dir) if cache_dir is not None else None
    executor = ExperimentExecutor(workers=workers, store=store)
    set_default_executor(executor)
    return executor
