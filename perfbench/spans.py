"""Outside-in tracing for the benchmark: wrappers, spans, layer roll-up.

The benchmark never edits the program.  For a traced run it replaces a
fixed list of the program's public callables (and the module-level
names the engine, executor and analysis layers import them under) with
timing wrappers, runs the workload, and restores the originals.

Spans are aggregated, not logged per call: one record per
``(job, parent layer, layer)`` holding total seconds, self seconds and
the call count.  A layer's self time is its duration minus the time of
the wrapped calls it made, so the self times of every record under one
root frame add up to the root's wall time exactly; the root's own self
time is the explicit ``unattributed`` remainder.

Pool children are forked after the wrappers are installed, so they are
traced too.  Each child job starts from empty accumulators and ships
its records back on the result object; the parent pops them off again
in the :meth:`ExperimentExecutor.run_detailed` wrapper, before the
results reach any caller.  Child time runs in parallel with the
parent's, so it is reported beside the parent's wall, never inside it.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

#: Attribute a forked pool child stores its span records under, on the
#: result object it returns.
CHILD_SPANS_ATTR = "_perfbench_spans"

#: The ``ENGINE_PHASES`` name each engine-side layer rolls up into.
#: Layers under ``engine.run`` that are missing here (departures,
#: faults, trace loading) and the engine's own self time make up
#: ``phase.unattributed``.
PHASE_OF = {
    "queries.create": "arrival",
    "queries.create_traced": "arrival",
    "matchmaking.candidates": "candidate_lookup",
    "utilization.advance": "scoring",
    "utilization.of": "scoring",
    "preferences.draw": "scoring",
    "preferences.consumer": "scoring",
    "participants.sat_read": "scoring",
    "intentions.provider": "scoring",
    "intentions.consumer": "scoring",
    "queueing.backlog": "scoring",
    "allocation.sqlb": "ranking",
    "allocation.capacity": "ranking",
    "allocation.mariposa": "ranking",
    "queueing.assign": "log_push",
    "queueing.response_time": "log_push",
    "utilization.assign": "log_push",
    "model.query_profile": "log_push",
    "participants.record_query": "log_push",
    "participants.record_proposals": "log_push",
}

ENGINE_PHASES = ("arrival", "candidate_lookup", "scoring", "ranking", "log_push")


def _after_engine_run(tracer, result, args, kwargs):
    sim = args[0]
    source = "replay" if sim.config.workload.kind == "trace" else "live"
    counts = tracer.counts
    counts["served"] += result.queries_served
    counts[f"served.{source}"] += result.queries_served
    counts[f"served.{result.method_name}"] += result.queries_served
    counts["issued"] += result.queries_issued
    for pool in (sim.providers, sim.consumers):
        for kind, n in pool.push_stats().items():
            counts[f"memory.pushes_{kind}"] += n
        counts["memory.view_rebuilds"] += pool.view_rebuilds


def _after_departures(tracer, records, args, kwargs):
    tracer.counts["departures.count"] += len(records)


def _after_put(tracer, key, args, kwargs):
    root = args[0].root
    tracer.counts["store.put_bytes"] += sum(
        (root / f"{key}{suffix}").stat().st_size for suffix in (".npz", ".json")
    )


def _after_get(tracer, result, args, kwargs):
    tracer.counts["store.get_hits"] += result is not None


def _after_payload_bytes(tracer, data, args, kwargs):
    tracer.counts["analysis.bytes"] += len(data)


def _after_run_detailed(tracer, detailed, args, kwargs):
    for result, _ in detailed:
        shipped = result.__dict__.pop(CHILD_SPANS_ATTR, None)
        if shipped is not None:
            tracer.merge_child(shipped)


#: (module, attribute path, layer, after-hook).  A dotted path patches a
#: class attribute; a bare name patches the module-level name a caller
#: looks up at call time (the engine imports its helpers by name).
TARGETS = (
    ("repro.simulation.engine", "MediatorSimulation.run", "engine.run", _after_engine_run),
    ("repro.simulation.queries", "QueryFactory.create", "queries.create", None),
    ("repro.simulation.queries", "QueryFactory.create_traced", "queries.create_traced", None),
    ("repro.simulation.matchmaking", "UniversalMatchmaker.candidates", "matchmaking.candidates", None),
    ("repro.simulation.matchmaking", "CapabilityMatchmaker.candidates", "matchmaking.candidates", None),
    ("repro.simulation.engine", "provider_intention_vector", "intentions.provider", None),
    ("repro.simulation.engine", "consumer_intention_vector", "intentions.consumer", None),
    ("repro.simulation.preferences", "ProviderPreferences.draw", "preferences.draw", None),
    ("repro.simulation.preferences", "ConsumerPreferences.for_consumer", "preferences.consumer", None),
    ("repro.simulation.participants", "ProviderPool.satisfactions_of", "participants.sat_read", None),
    ("repro.simulation.participants", "ConsumerPool.satisfaction_of", "participants.sat_read", None),
    ("repro.simulation.participants", "ConsumerPool.record_query", "participants.record_query", None),
    ("repro.simulation.participants", "ProviderPool.record_proposals", "participants.record_proposals", None),
    ("repro.simulation.engine", "query_adequation", "model.query_profile", None),
    ("repro.simulation.engine", "query_satisfaction", "model.query_profile", None),
    ("repro.allocation.sqlb_method", "SQLBMethod.select", "allocation.sqlb", None),
    ("repro.allocation.capacity_based", "CapacityBasedMethod.select", "allocation.capacity", None),
    ("repro.allocation.mariposa", "MariposaMethod.select", "allocation.mariposa", None),
    ("repro.simulation.queueing", "ProviderQueues.assign", "queueing.assign", None),
    ("repro.simulation.queueing", "ProviderQueues.response_time", "queueing.response_time", None),
    ("repro.simulation.queueing", "ProviderQueues.backlog_seconds_of", "queueing.backlog", None),
    ("repro.simulation.utilization", "UtilizationTracker.advance", "utilization.advance", None),
    ("repro.simulation.utilization", "UtilizationTracker.utilization_of", "utilization.of", None),
    ("repro.simulation.utilization", "UtilizationTracker.assign", "utilization.assign", None),
    ("repro.simulation.departures", "DeparturePolicy.check_providers", "departures.check", _after_departures),
    ("repro.simulation.departures", "DeparturePolicy.check_consumers", "departures.check", _after_departures),
    ("repro.simulation.engine", "compile_fault_events", "faults.compile", None),
    ("repro.simulation.trace", "load_trace", "trace.load", None),
    ("repro.experiments.executor", "ExperimentExecutor.run_detailed", "executor.run", _after_run_detailed),
    ("repro.experiments.store", "ResultStore.put", "store.put", _after_put),
    ("repro.experiments.store", "ResultStore.get", "store.get", _after_get),
    ("repro.experiments.store", "ResultStore.load_series", "store.load_series", None),
    ("repro.sweeps.runner", "SweepRunner.run_shard", "sweeps.run_shard", None),
    ("repro.sweeps.runner", "write_manifest", "sweeps.manifest_write", None),
    ("repro.scheduler.worker", "write_manifest", "sweeps.manifest_write", None),
    ("repro.analysis.series", "load_manifests", "sweeps.manifest_cells", None),
    ("repro.analysis.series", "manifest_cells", "sweeps.manifest_cells", None),
    ("repro.sweeps.aggregate", "sweep_summary", "aggregate.summary", None),
    ("repro.scheduler.queue", "WorkQueue.init", "queue.init", None),
    ("repro.scheduler.queue", "WorkQueue.claim", "queue.claim", None),
    ("repro.scheduler.queue", "WorkQueue.ack", "queue.ack", None),
    ("repro.scheduler.queue", "WorkQueue.heartbeat", "queue.heartbeat", None),
    ("repro.scheduler.queue", "WorkQueue.requeue_expired", "queue.scavenge", None),
    ("repro.scheduler.queue", "WorkQueue.write_worker_counters", "queue.counters", None),
    ("repro.scheduler.queue", "WorkQueue.counts", "queue.counts", None),
    ("repro.scheduler.worker", "QueueWorker.run", "queue.worker", None),
    ("repro.analysis.figures", "render_catalog", "analysis.render", None),
    ("repro.analysis.figures", "cells_from_store", "analysis.cells", None),
    ("repro.analysis.figures", "figure_payload", "analysis.payload", None),
    ("repro.analysis.figures", "payload_bytes", "analysis.bytes", _after_payload_bytes),
)

#: The tracer the module-level pool-job wrapper reports to.  Set by
#: :meth:`Tracer.install`; a forked pool child inherits it.
_active: "Tracer | None" = None
_real_execute_job = None


def traced_execute_job(job):
    """Stand-in for the executor's pool entry point (picklable by name).

    In the parent process it is one more span.  In a forked pool child
    it traces the job from empty accumulators and ships the records
    back on the result.
    """
    tracer = _active
    if os.getpid() == tracer.pid:
        if not tracer.stack:
            return _real_execute_job(job)
        with tracer.span("executor.job"):
            return _real_execute_job(job)
    tracer.reset(job.trace or f"{job.method}/seed{job.seed}")
    with tracer.root("executor.job") as frame:
        result = _real_execute_job(job)
    result.__dict__[CHILD_SPANS_ATTR] = {
        "wall": frame.wall,
        "acc": tracer.acc,
        "counts": tracer.counts,
    }
    return result


class _Root:
    __slots__ = ("wall",)


class Tracer:
    """Span accumulators plus the install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.reset("setup")
        self.child_acc: dict = {}
        self.child_counts: Counter = Counter()
        self.child_walls: list[float] = []
        self._patches: list = []

    def reset(self, job: str) -> None:
        """Empty every accumulator and make ``job`` the current job."""
        self.thread = threading.get_ident()
        self.job = job
        self.acc: dict = {}
        self.counts: Counter = Counter()
        self.stack: list = []

    # -- recording -----------------------------------------------------

    def _close(self, frame, duration: float) -> None:
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += duration
        key = (self.job, parent[0], frame[0])
        record = self.acc.get(key)
        if record is None:
            self.acc[key] = [duration, duration - frame[1], 1]
        else:
            record[0] += duration
            record[1] += duration - frame[1]
            record[2] += 1

    @contextmanager
    def span(self, layer: str):
        frame = [layer, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, perf_counter() - start)

    @contextmanager
    def root(self, name: str = "unattributed"):
        """The bottom frame of one traced pass; its self time is the
        unattributed remainder and ``wall`` its duration."""
        if self.stack:
            raise RuntimeError("a traced pass is already open")
        frame = [name, 0.0]
        self.stack.append(frame)
        out = _Root()
        start = perf_counter()
        try:
            yield out
        finally:
            out.wall = perf_counter() - start
            self.stack.pop()
            key = (self.job, None, name)
            record = self.acc.setdefault(key, [0.0, 0.0, 0])
            record[0] += out.wall
            record[1] += out.wall - frame[1]
            record[2] += 1

    def wrap(self, fn, layer: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer.thread or not tracer.stack:
                # Off the traced thread (the queue worker's heartbeater)
                # or outside a pass: count, never touch the span stack.
                tracer.counts[f"{layer}.untraced_calls"] += 1
                return fn(*args, **kwargs)
            # span() inlined: this runs about a dozen times per query.
            frame = [layer, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter() - start)
            if after is not None:
                after(tracer, out, args, kwargs)
            return out

        return traced

    def traced_as_completed(self, real):
        tracer = self

        def as_completed(fs, timeout=None):
            iterator = real(fs, timeout)
            while True:
                with tracer.span("executor.wait"):
                    try:
                        future = next(iterator)
                    except StopIteration:
                        return
                yield future

        return as_completed

    def merge_child(self, shipped: dict) -> None:
        self.child_walls.append(shipped["wall"])
        for key, (total, self_s, calls) in shipped["acc"].items():
            record = self.child_acc.setdefault(key, [0.0, 0.0, 0])
            record[0] += total
            record[1] += self_s
            record[2] += calls
        self.child_counts.update(shipped["counts"])

    # -- install / uninstall -------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original)``; remembered for
        :meth:`uninstall`.  Class attributes are read from the class
        ``__dict__`` so a classmethod is rewrapped, not its binding."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        global _active, _real_execute_job
        if _active is not None:
            raise RuntimeError("another tracer is installed")
        for module_name, path, layer, after in TARGETS:
            owner = import_module(module_name)
            *classes, name = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)

            def make(original, layer=layer, after=after):
                if isinstance(original, classmethod):
                    return classmethod(self.wrap(original.__func__, layer, after))
                return self.wrap(original, layer, after)

            self._patch(owner, name, make)
        executor = import_module("repro.experiments.executor")
        self._patch(executor, "as_completed", self.traced_as_completed)
        _real_execute_job = executor._execute_job
        self._patch(executor, "_execute_job", lambda original: traced_execute_job)
        _active = self

    def uninstall(self) -> None:
        global _active, _real_execute_job
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        _active = None
        _real_execute_job = None


# -- roll-up ---------------------------------------------------------------


def layer_sums(acc: dict) -> dict[str, list]:
    """layer → [total_s, self_s, calls] summed over jobs and parents."""
    sums: dict[str, list] = {}
    for (_, _, layer), (total, self_s, calls) in acc.items():
        record = sums.setdefault(layer, [0.0, 0.0, 0])
        record[0] += total
        record[1] += self_s
        record[2] += calls
    return sums


def wall_breakdown(acc: dict) -> tuple[dict[str, float], float]:
    """Parent-process self seconds per layer, and the traced wall.

    The root frames' self time is reported under ``unattributed``; the
    values add up to the wall (the roots' summed durations).
    """
    sums = layer_sums(acc)
    wall = sums.get("unattributed", [0.0])[0]
    return {layer: record[1] for layer, record in sums.items()}, wall


def phase_rollup(sums: dict[str, list]) -> dict[str, float]:
    """Engine seconds per ``ENGINE_PHASES`` name plus ``unattributed``.

    Sums to the total of the ``engine.run`` spans: every layer called
    under the engine is self-timed, so the phases take the self times
    of the layers they own and the remainder is everything else the
    engine did itself or called outside a phase.
    """
    phases = dict.fromkeys(ENGINE_PHASES, 0.0)
    for layer, phase in PHASE_OF.items():
        if layer in sums:
            phases[phase] += sums[layer][1]
    engine_total = sums.get("engine.run", [0.0])[0]
    phases["unattributed"] = engine_total - sum(phases.values())
    return phases
