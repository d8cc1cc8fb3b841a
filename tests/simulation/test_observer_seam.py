"""The engine's observer seam: hooks, read-only views, and the cost of
attaching nothing.

An observer defines only the hooks it needs and the engine binds them
once, at construction.  These tests attach a test-only observer with no
engine edit, check that what observers receive cannot write engine
state, and pin deterministically — by counting, never by timing — what
a run costs with no observer (no clock read, no file opened), with the
telemetry phase timer (a fixed number of clock reads per arrival) and
with the decision audit (one record per served query, no write before
``commit``).
"""

from __future__ import annotations

import builtins
import io
import os
from collections import Counter

import numpy as np
import pytest

from repro.audit import recorder as audit_recorder
from repro.audit.recorder import DecisionAudit, audit_session
from repro.simulation import engine
from repro.simulation.config import DepartureRules, WorkloadSpec, tiny_config
from repro.simulation.engine import ENGINE_PHASES, MediatorSimulation
from repro.simulation.matchmaking import UniversalMatchmaker
from repro.simulation.trace import (
    SKIPPED,
    TraceRecorder,
    record_trace,
    replay_config,
)
from repro.telemetry import registry as telemetry_registry
from repro.telemetry.registry import telemetry_session
from repro.telemetry.report import aggregate_events


class ClassZeroUnserved(UniversalMatchmaker):
    """Finds no provider for query class 0, so some queries go unserved."""

    def candidates(self, query, active):
        if query.klass == 0:
            return np.empty(0, dtype=np.int64)
        return super().candidates(query, active)


class CountingObserver:
    """Receives every hook and counts what it saw."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.phases: list[str | None] = []
        self.arrivals: list[tuple[float, int, int]] = []

    def on_run_start(self, sim) -> None:
        self.calls["run_start"] += 1

    def on_phase(self, name) -> None:
        self.phases.append(name)

    def on_arrival(self, time, consumer, klass) -> None:
        self.arrivals.append((time, consumer, klass))

    def on_unserved(self) -> None:
        self.calls["unserved"] += 1

    def on_decision(
        self, request, positions, adequation, satisfaction, cache_hit
    ) -> None:
        self.calls["decision"] += 1
        assert request.rng is None  # the method's stream stays private
        assert positions.size == request.query.n_desired
        assert 0.0 <= satisfaction <= 1.0 and 0.0 <= adequation <= 1.0
        self.calls["cache_hit"] += bool(cache_hit)

    def on_run_end(self, sim) -> None:
        self.calls["run_end"] += 1


class WritingObserver:
    """Writes into one of the arrays the engine handed it."""

    def __init__(self, target: str) -> None:
        self.target = target

    def on_decision(
        self, request, positions, adequation, satisfaction, cache_hit
    ) -> None:
        if self.target == "positions":
            positions[0] = 0
        else:
            getattr(request, self.target)[0] = 0.0


def _config():
    """An autonomous tiny environment: under ``capacity`` consumers
    leave, so some arrivals are skipped."""
    return tiny_config(
        duration=120.0, workload=WorkloadSpec.fixed(1.0)
    ).with_departures(DepartureRules.autonomous(True))


@pytest.fixture(autouse=True)
def _no_ambient_observers():
    """Telemetry and audit off unless a test installs them."""
    with telemetry_registry._switch.override(None):
        with audit_recorder._switch.override(None):
            yield


def _run(config, *observers, matchmaker=None):
    sim = MediatorSimulation(
        config,
        "capacity",
        seed=3,
        matchmaker=matchmaker or ClassZeroUnserved(),
        observers=observers,
    )
    return sim, sim.run()


@pytest.mark.parametrize("source", ["live", "replay"])
def test_a_test_observer_receives_every_hook(source, tmp_path):
    config = _config()
    if source == "replay":
        path = tmp_path / "trace.json"
        record_trace(config, "capacity", 3, path)
        config = replay_config(config, path)
    observer, recorder = CountingObserver(), TraceRecorder()
    _, result = _run(config, observer, recorder)

    issued = [a for a in observer.arrivals if a[2] != SKIPPED]
    assert observer.calls["run_start"] == observer.calls["run_end"] == 1
    assert len(issued) == result.queries_issued
    assert observer.calls["decision"] == result.queries_served
    assert observer.calls["unserved"] == result.queries_unserved
    assert len(observer.arrivals) == len(recorder)
    assert observer.arrivals == list(
        zip(recorder.times, recorder.consumers, recorder.klasses)
    )
    # The run really had all three kinds of arrival.
    assert result.queries_served and result.queries_unserved
    assert len(observer.arrivals) > len(issued)
    assert 0 < observer.calls["cache_hit"] <= result.queries_served
    # Each arrival's timed stretch walks a prefix of the phases, in
    # order, and ends with one None: arrival only when skipped, through
    # the candidate lookup when unserved, all five when served.
    stretches, current = Counter(), []
    for name in observer.phases:
        if name is None:
            stretches[tuple(current)] += 1
            current = []
        else:
            current.append(name)
    assert not current
    assert stretches == {
        ENGINE_PHASES[:1]: len(observer.arrivals) - len(issued),
        ENGINE_PHASES[:2]: result.queries_unserved,
        ENGINE_PHASES: result.queries_served,
    }


def test_replay_draws_nothing_from_the_arrival_streams(tmp_path):
    config = _config()
    path = tmp_path / "trace.json"
    record_trace(config, "capacity", 3, path)
    sim = MediatorSimulation(replay_config(config, path), "sqlb", seed=3)
    before = [
        rng.bit_generator.state
        for rng in (sim._rng_workload, sim._rng_queries)
    ]
    sim.run()
    assert [
        rng.bit_generator.state
        for rng in (sim._rng_workload, sim._rng_queries)
    ] == before


@pytest.mark.parametrize(
    "target", ["utilizations", "capacities", "candidates", "positions"]
)
def test_an_observer_writing_a_received_array_raises(target):
    sim = MediatorSimulation(
        tiny_config(duration=20.0), "sqlb", seed=3,
        observers=(WritingObserver(target),),
    )
    with pytest.raises(ValueError, match="read-only"):
        sim.run()
    # The views refused the write; the engine's own arrays keep their
    # flags.
    assert sim._ci_clip_scratch.flags.writeable
    assert sim.capacity.rates.flags.writeable


def test_recorder_keyword_is_gone():
    with pytest.raises(TypeError):
        MediatorSimulation(
            tiny_config(duration=20.0), "sqlb", recorder=TraceRecorder()
        )


class Refuse:
    """Stands in for a clock or a file opener: records the call, raises."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        raise AssertionError("a clock or a file was touched")


def _seal(patcher, refuse, *targets):
    for module, name in targets:
        patcher.setattr(module, name, refuse)


FILE_OPENERS = ((builtins, "open"), (io, "open"), (os, "open"))


def test_unobserved_run_reads_no_clock_and_opens_no_file(monkeypatch):
    sim = MediatorSimulation(
        _config(), "capacity", seed=3, matchmaker=ClassZeroUnserved()
    )
    assert sim._on_phase == sim._on_arrival == sim._on_decision == ()
    refuse = Refuse()
    _seal(monkeypatch, refuse, (engine, "perf_counter"), *FILE_OPENERS)
    result = sim.run()
    assert refuse.calls == []
    assert result.queries_served and result.queries_unserved


def test_telemetry_reads_the_clock_a_pinned_number_of_times(monkeypatch):
    real = engine.perf_counter
    reads = Counter()

    def counting_perf_counter():
        reads["clock"] += 1
        return real()

    monkeypatch.setattr(engine, "perf_counter", counting_perf_counter)
    observer = CountingObserver()
    with telemetry_session():
        _, result = _run(_config(), observer)
    skipped = len(observer.arrivals) - result.queries_issued
    assert skipped > 0 and result.queries_unserved > 0
    # Run span open and close, then per arrival: 6 for a served query
    # (five phases opened, one closed), 3 for an unserved one, 2 for a
    # skipped arrival.
    assert reads["clock"] == (
        2
        + 6 * result.queries_served
        + 3 * result.queries_unserved
        + 2 * skipped
    )


def test_audit_records_each_served_query_and_writes_only_at_commit(
    monkeypatch, tmp_path
):
    decisions = Counter()
    real_on_decision = DecisionAudit.on_decision

    def counting_on_decision(self, *args):
        decisions["served"] += 1
        return real_on_decision(self, *args)

    monkeypatch.setattr(DecisionAudit, "on_decision", counting_on_decision)
    config = _config()
    refuse = Refuse()
    with audit_session(tmp_path) as audit:
        with monkeypatch.context() as sealed:
            _seal(sealed, refuse, *FILE_OPENERS)
            _, result = _run(config)
        assert refuse.calls == []
        assert decisions["served"] == result.queries_served
        assert list(tmp_path.iterdir()) == []
        manifest = audit.commit("ab" * 16, "capacity", config)
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".json", ".npz"]
    assert manifest.exists()


def test_replayed_run_reports_arrival_time(tmp_path):
    config = tiny_config(duration=60.0)
    path = tmp_path / "trace.json"
    record_trace(config, "sqlb", 5, path)
    for run_config in (config, replay_config(config, path)):
        with telemetry_session() as telemetry:
            MediatorSimulation(run_config, "sqlb", seed=5).run()
        phases = {
            row["phase"]: row["total_s"]
            for row in aggregate_events(telemetry.events)["phases"]
        }
        assert set(phases) == set(ENGINE_PHASES)
        assert phases["arrival"] > 0.0, run_config.workload.kind
