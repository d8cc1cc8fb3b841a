"""The benchmark's two workloads: set-up, one measured pass, output checks.

``engine_paper`` prices the engine at paper scale: the environment of
the legacy ``captive_large`` perf cell (200 consumers, 400 providers,
Table 2 memories, captive, fixed 80 % load) at a 10 s horizon, simulated by
``run_simulation`` directly under the paper's three methods, first on
the live Poisson source and then replaying a trace recorded at set-up.
No executor, store, queue or analysis code runs, so a change to those
layers must leave this workload flat.

``grid_tiny`` prices the path from a seed grid to a rendered figure:
a ``tiny``-scale sweep over four scenarios with departures, faults and
a piecewise load, run cold through ``SweepRunner`` on a process pool
into a fresh store, then read back four ways (warm sweep, warm queue
drain, ``sweep_summary``, ``render_catalog``).  It also replays traces
recorded at set-up, so both arrival sources run at 16-wide rows too.

A pass does only the measured work and returns what it produced;
``verify`` checks the outputs afterwards, outside every timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, process_time

from repro.allocation.registry import PAPER_METHODS
from repro.analysis import figures
from repro.experiments import executor as executor_module
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.perf import PERF_MATRIX
from repro.experiments.store import ResultStore, cache_key
from repro.scheduler.queue import WorkQueue
from repro.scheduler.worker import QueueWorker
from repro.simulation import engine
from repro.simulation import trace as trace_module
from repro.simulation.trace import (
    record_trace,
    replay_config,
    series_fingerprint,
    trace_digest,
)
from repro.sweeps import aggregate
from repro.sweeps.runner import SweepRunner
from repro.sweeps.spec import SweepSpec

PINNED_PATH = Path(__file__).with_name("pinned.json")

#: Attribute a pool job's CPU seconds ride back to the parent under, on
#: the result object it returns.
JOB_CPU_ATTR = "_perfbench_job_cpu"
_real_execute_job = None


def derive_seeds(workload: str, seed: int, count: int) -> tuple[int, ...]:
    """``count`` simulation seeds derived from one workload seed."""
    return tuple(
        int.from_bytes(
            hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()[:4],
            "big",
        )
        for index in range(count)
    )


def cpu_seconds() -> float:
    """CPU seconds spent so far by this process and its reaped children.

    Every end-to-end timing is CPU time, not wall time: it leaves out
    the time the guest's scheduler or the host gives to anyone else
    (the parent and two pool workers share two vCPUs; a shared host
    takes vCPUs away as steal), so it prices the program's own work.
    Pool workers count once their pool has joined them, which
    ``ExperimentExecutor`` does before ``run_detailed`` returns.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def timed_execute_job(job):
    """Stand-in for the executor's pool entry point (picklable by name):
    runs the job and ships its CPU seconds back on the result."""
    started = process_time()
    result = _real_execute_job(job)
    result.__dict__[JOB_CPU_ATTR] = process_time() - started
    return result


@contextmanager
def timed_jobs():
    """Time every executor job run inside the block, in whichever
    process runs it.  Pool workers fork inside the block, so they
    inherit the stand-in."""
    global _real_execute_job
    _real_execute_job = executor_module._execute_job
    executor_module._execute_job = timed_execute_job
    try:
        yield
    finally:
        executor_module._execute_job = _real_execute_job
        _real_execute_job = None


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _set_job(tracer, name: str) -> None:
    if tracer is not None:
        tracer.job = name


class Checks:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def equal(self, actual, expected, what: str) -> bool:
        return self.check(
            actual == expected, f"{what}: got {actual!r}, expected {expected!r}"
        )


class RecordingExecutor(ExperimentExecutor):
    """An executor that keeps every (job, result, store_hit) it returns,
    so warm reads can be checked against cold results afterwards, and
    the CPU seconds of every job :func:`timed_jobs` timed."""

    def __init__(self, workers: int, store: ResultStore) -> None:
        super().__init__(workers=workers, store=store)
        self.seen: list = []
        self.job_cpu: list = []

    def run_detailed(self, jobs):
        jobs = list(jobs)
        detailed = super().run_detailed(jobs)
        for job, (result, hit) in zip(jobs, detailed):
            self.seen.append((job, result, hit))
            seconds = result.__dict__.pop(JOB_CPU_ATTR, None)
            if seconds is not None:
                self.job_cpu.append((job, result, seconds))
        return detailed


class EnginePaper:
    """Paper-scale engine runs, live and replayed, with no layers above."""

    name = "engine_paper"
    cell = "captive_large"
    #: Simulated seconds per run, cut from the cell's 60 so that one
    #: run takes a fraction of a second and a pass samples every step
    #: many times over a run.  Sampling and warm-up keep the cell's
    #: shares of the horizon's length (the cell samples every 30 s,
    #: which a 10 s run would never reach, leaving the fingerprints
    #: nothing to cover).
    horizon = 10.0
    samples = 5
    #: Trace loads per pass; ``read_s`` is the fastest of all of them.
    trace_loads = 20

    def __init__(self, seed: int, work_dir: Path, checks: Checks, pool: int) -> None:
        self.seed = int(seed)
        self.work_dir = work_dir
        self.checks = checks
        self.setups: list[dict] = []

    def inputs(self) -> dict:
        """The generated inputs: environment and simulation seed."""
        config = {c.name: c for c in PERF_MATRIX}[self.cell].build()
        config = dataclasses.replace(
            config,
            duration=self.horizon,
            sample_interval=self.horizon / self.samples,
            warmup_time=config.warmup_time * self.horizon / config.duration,
        )
        return {"config": config, "seed": self.seed}

    def inputs_digest(self) -> str:
        inputs = self.inputs()
        return _digest(
            {"config": dataclasses.asdict(inputs["config"]), "seed": inputs["seed"]}
        )

    def setup(self, index: int) -> None:
        """Build the environment and record the ``sqlb`` trace."""
        inputs = self.inputs()
        path = self.work_dir / f"setup-{index}" / "sqlb.trace.json"
        recorded = record_trace(
            inputs["config"], "sqlb", self.seed, path, scale=self.cell
        )
        self.config = inputs["config"]
        self.trace_path = path
        self.trace_digest = trace_digest(path)
        self.replay = replay_config(self.config, path)
        self.setups.append(
            {"digest": self.trace_digest, "recorded": series_fingerprint(recorded)}
        )

    def check_setup(self) -> None:
        digests = {s["digest"] for s in self.setups}
        self.checks.equal(len(digests), 1, "trace bytes identical across set-ups")

    def run_pass(self, tracer, pass_dir: Path) -> dict:
        results = {}
        timings = {"live": {}, "replay": {}, "read": {"trace_load": []}}
        # Live and replayed runs alternate, so both sources sample the
        # same stretches of a noisy host.
        for method in PAPER_METHODS:
            for source, config in (("live", self.config), ("replay", self.replay)):
                _set_job(tracer, f"{source}/{method}")
                started = cpu_seconds()
                result = engine.run_simulation(config, method, seed=self.seed)
                timings[source][method] = (result.queries_served, [cpu_seconds() - started])
                results[f"{source}/{method}"] = result
        _set_job(tracer, "read")
        for _ in range(self.trace_loads):
            started = cpu_seconds()
            loaded = trace_module.load_trace(
                self.trace_path, expected_digest=self.trace_digest
            )
            timings["read"]["trace_load"].append(cpu_seconds() - started)
        return {"timings": timings, "results": results, "trace_events": loaded.events}

    def verify(self, outcome: dict, pinned: dict | None) -> dict[str, str]:
        checks = self.checks
        fingerprints = {}
        for name, result in outcome["results"].items():
            checks.check(result.queries_served > 0, f"{name} served no query")
            checks.equal(len(result.times()), self.samples, f"{name} samples")
            fingerprints[name] = series_fingerprint(result)
        checks.equal(
            fingerprints["replay/sqlb"], fingerprints["live/sqlb"],
            "sqlb replay fingerprint vs live sqlb",
        )
        checks.equal(
            fingerprints["live/sqlb"], self.setups[-1]["recorded"],
            "live sqlb fingerprint vs the set-up recording",
        )
        checks.check(outcome["trace_events"] > 0, "the recorded trace is empty")
        if pinned is not None:
            for name, expected in pinned["fingerprints"].items():
                checks.equal(fingerprints.get(name), expected, f"pinned fingerprint {name}")
        return fingerprints


class GridTiny:
    """A tiny-scale grid from cold sweep to rendered figures."""

    name = "grid_tiny"
    scenarios = ("autonomous_full", "provider_churn_stress", "captive_flap", "diurnal")
    n_seeds = 10
    #: Leading grid seeds whose ``sqlb`` runs are recorded for replay:
    #: one, which keeps a pass short, so a run samples every step often.
    replay_seeds = 1

    def __init__(self, seed: int, work_dir: Path, checks: Checks, pool: int) -> None:
        self.seed = int(seed)
        self.work_dir = work_dir
        self.checks = checks
        self.pool = pool
        self.setups: list[dict] = []

    def inputs(self) -> dict:
        spec = SweepSpec(
            name=f"perfbench-{self.name}",
            scenarios=self.scenarios,
            methods=PAPER_METHODS,
            seeds=derive_seeds(self.name, self.seed, self.n_seeds),
            scale="tiny",
        )
        return {"spec": spec, "configs": spec.configs()}

    def inputs_digest(self) -> str:
        inputs = self.inputs()
        return _digest(
            {
                "spec": inputs["spec"].payload(),
                "configs": {
                    name: dataclasses.asdict(config)
                    for name, config in inputs["configs"].items()
                },
            }
        )

    @property
    def n_jobs(self) -> int:
        return len(self.scenarios) * len(PAPER_METHODS) * self.n_seeds

    def setup(self, index: int) -> None:
        """Build the spec and configs; record the replayed traces."""
        inputs = self.inputs()
        directory = self.work_dir / f"setup-{index}"
        replays = []
        for scenario in self.scenarios:
            config = inputs["configs"][scenario]
            for seed in inputs["spec"].seeds[: self.replay_seeds]:
                path = directory / f"{scenario}-{seed}.trace.json"
                recorded = record_trace(
                    config, "sqlb", seed, path, scenario=scenario, scale="tiny"
                )
                replays.append(
                    {
                        "scenario": scenario,
                        "seed": seed,
                        "config": replay_config(config, path),
                        "recorded": series_fingerprint(recorded),
                        "cold_key": cache_key(config, "sqlb", seed),
                        "digest": trace_digest(path),
                    }
                )
        self.spec = inputs["spec"]
        self.replays = replays
        self.setups.append({"digests": [r["digest"] for r in replays]})

    def check_setup(self) -> None:
        digests = {tuple(s["digests"]) for s in self.setups}
        self.checks.equal(len(digests), 1, "trace bytes identical across set-ups")

    def run_pass(self, tracer, pass_dir: Path) -> dict:
        store_dir = pass_dir / "store"

        def executor() -> RecordingExecutor:
            return RecordingExecutor(self.pool, ResultStore(store_dir))

        timings = {"live": {}, "replay": {}, "read": {}}
        _set_job(tracer, "cold")
        cold = executor()
        started, started_wall = cpu_seconds(), perf_counter()
        with timed_jobs():
            cold_report = SweepRunner(cold).run_shard(self.spec)
        timings["cold_wall"] = perf_counter() - started_wall
        # Each job is a step of its own; "rest" is all the phase's other
        # CPU: puts, manifests, pool start-up and result transfer.
        rest = cpu_seconds() - started
        for job, result, seconds in cold.job_cpu:
            key = cache_key(job.config, job.method, job.seed)
            timings["live"][key] = (result.queries_served, [seconds])
            rest -= seconds
        timings["live"]["rest"] = (0, [rest])

        replayed = {}
        for replay in self.replays:
            for method in PAPER_METHODS:
                name = f"replay/{replay['scenario']}/{method}/{replay['seed']}"
                _set_job(tracer, name)
                started = cpu_seconds()
                result = engine.run_simulation(
                    replay["config"], method, seed=replay["seed"]
                )
                timings["replay"][name] = (result.queries_served, [cpu_seconds() - started])
                replayed[name] = result

        read = self._read_back(tracer, pass_dir, store_dir, executor, timings)
        return {
            "timings": timings,
            "cold": cold,
            "cold_report": cold_report,
            "replayed": replayed,
            "read": read,
        }

    def _read_back(self, tracer, pass_dir, store_dir, executor, timings) -> dict:
        """One warm sweep, queue drain, summary and figure render.

        The drain is timed apart from ``read``: it is bound by small-file
        metadata operations, whose latency swung 2x between runs on a
        2-vCPU virtual machine, more than any bound on ``read_s`` could
        carry.  Its queue-protocol cost is priced by the traced run.
        """
        read = timings["read"]
        _set_job(tracer, "warm")
        warm = executor()
        started = cpu_seconds()
        warm_report = SweepRunner(warm).run_shard(self.spec)
        read["warm"] = [cpu_seconds() - started]

        _set_job(tracer, "drain")
        drain = executor()
        started = cpu_seconds()
        queue = WorkQueue.init(pass_dir / "queue", self.spec)
        worker_report = QueueWorker(queue, executor=drain, owner="perfbench").run()
        timings["drain"] = [cpu_seconds() - started]

        _set_job(tracer, "report")
        report = executor()
        started = cpu_seconds()
        summary = aggregate.sweep_summary(self.spec, report)
        read["report"] = [cpu_seconds() - started]

        _set_job(tracer, "figures")
        started = cpu_seconds()
        render = figures.render_catalog(store_dir, pass_dir / "figures", formats=("json",))
        read["figures"] = [cpu_seconds() - started]
        return {
            "executors": {"warm": warm, "drain": drain, "report": report},
            "warm_report": warm_report,
            "worker_report": worker_report,
            "queue": queue,
            "summary": summary,
            "render": render,
        }

    def verify(self, outcome: dict, pinned: dict | None) -> dict[str, str]:
        checks = self.checks
        n_jobs = self.n_jobs
        cold = outcome["cold"]
        checks.equal(outcome["cold_report"].simulated, n_jobs, "cold sweep simulated")
        checks.equal(cold.simulations_run, n_jobs, "cold executor simulations")
        for job, result, _ in cold.seen:
            checks.check(
                result.queries_served > 0 and len(result.times()) > 0,
                f"cold {job.method}/{job.seed} served no query or has no samples",
            )
        cold_fps = {
            cache_key(job.config, job.method, job.seed): series_fingerprint(result)
            for job, result, _ in cold.seen
        }
        checks.equal(len(cold_fps), n_jobs, "distinct cold results")

        replay_fps = {}
        for replay in self.replays:
            for method in PAPER_METHODS:
                name = f"replay/{replay['scenario']}/{method}/{replay['seed']}"
                result = outcome["replayed"][name]
                checks.check(
                    result.queries_served > 0 and len(result.times()) > 0,
                    f"{name} served no query or has no samples",
                )
                replay_fps[name] = series_fingerprint(result)
            name = f"replay/{replay['scenario']}/sqlb/{replay['seed']}"
            checks.equal(replay_fps[name], cold_fps.get(replay["cold_key"]), f"{name} vs cold sqlb")
            checks.equal(replay_fps[name], replay["recorded"], f"{name} vs its recording")

        figure_digests = self._verify_read_back(outcome["read"], cold_fps)
        if pinned is not None:
            for name, expected in pinned["figures"].items():
                checks.equal(figure_digests.get(name), expected, f"pinned figure {name}")
        return {
            **{f"cold/{key}": fp for key, fp in cold_fps.items()},
            **replay_fps,
            **{f"figure/{name}": digest for name, digest in figure_digests.items()},
        }

    def _verify_read_back(self, read: dict, cold_fps: dict[str, str]) -> dict[str, str]:
        checks = self.checks
        n_jobs = self.n_jobs
        for phase, executor in read["executors"].items():
            checks.equal(executor.simulations_run, 0, f"{phase} simulations")
            checks.equal(len(executor.seen), n_jobs, f"{phase} reads")
            for job, result, hit in executor.seen:
                key = cache_key(job.config, job.method, job.seed)
                checks.check(
                    hit and series_fingerprint(result) == cold_fps.get(key),
                    f"{phase} read of {job.method}/{job.seed} differs from cold",
                )
        checks.equal(read["warm_report"].simulated, 0, "warm sweep simulated")
        drained = read["worker_report"]
        checks.equal(
            (drained.processed, drained.simulated, drained.failed),
            (n_jobs, 0, 0),
            "drain (processed, simulated, failed)",
        )
        for record in read["queue"].done_records():
            checks.equal(record.get("state"), "store_hit", f"queue job {record.get('id')}")
        checks.equal(
            len(read["summary"]), len(self.scenarios) * len(PAPER_METHODS), "summary rows"
        )
        render = read["render"]
        checks.equal(list(render.skipped), [], "figures skipped")
        digests = {
            path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in render.written
        }
        checks.equal(sorted(digests), sorted(figures.available_figures()), "figures written")
        return digests

    @staticmethod
    def job_durations(outcome: dict) -> list[float]:
        """Per-job seconds the drain's done records carry."""
        return [
            float(record["duration_s"])
            for record in outcome["read"]["queue"].done_records()
            if record.get("duration_s") is not None
        ]


WORKLOADS = {cls.name: cls for cls in (EnginePaper, GridTiny)}


def load_pinned(workload: str, seed: int) -> dict | None:
    """The pinned output digests of ``workload`` if they were taken with
    ``seed`` (the default seed), else None."""
    pinned = json.loads(PINNED_PATH.read_text())[workload]
    return pinned if pinned["seed"] == seed else None
