"""Tests for the parallel experiment executor and its default wiring."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.experiments.executor import (
    ExperimentExecutor,
    SimulationJob,
    configure_default_executor,
    get_default_executor,
    set_default_executor,
)
from repro.experiments.harness import run_method_family, run_repeated
from repro.experiments import store as store_module
from repro.experiments.store import ResultStore
from repro.simulation.config import tiny_config
from repro.simulation.engine import run_simulation


@pytest.fixture(autouse=True)
def _reset_default_executor():
    """Never leak a configured default executor into other tests."""
    yield
    set_default_executor(None)


def _assert_results_identical(left, right):
    assert left.method_name == right.method_name
    assert left.seed == right.seed
    assert left.queries_issued == right.queries_issued
    assert left.queries_served == right.queries_served
    assert left.queries_unserved == right.queries_unserved
    np.testing.assert_array_equal(left.times(), right.times())
    assert set(left.collector.names) == set(right.collector.names)
    for name in left.collector.names:
        assert np.array_equal(
            left.series(name), right.series(name), equal_nan=True
        ), name


class TestSimulationJob:
    def test_rejects_method_instances(self, config):
        from repro.allocation.capacity_based import CapacityBasedMethod

        with pytest.raises(TypeError):
            SimulationJob(config, CapacityBasedMethod(), 1)

    def test_hashable(self, config):
        jobs = {SimulationJob(config, "sqlb", 1), SimulationJob(config, "sqlb", 1)}
        assert len(jobs) == 1


class TestExperimentExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ExperimentExecutor(workers=0)

    def test_serial_matches_direct_simulation(self):
        config = tiny_config(duration=40.0)
        executor = ExperimentExecutor(workers=1)
        result = executor.run_one(config, "sqlb", seed=3)
        direct = run_simulation(config, "sqlb", seed=3)
        _assert_results_identical(result, direct)
        assert executor.simulations_run == 1

    def test_parallel_matches_serial_bitwise(self):
        """Acceptance: the pool path is numerically identical to serial."""
        config = tiny_config(duration=60.0)
        jobs = [
            SimulationJob(config, method, seed)
            for method in ("sqlb", "capacity")
            for seed in (1, 2)
        ]
        serial = ExperimentExecutor(workers=1).run(jobs)
        parallel = ExperimentExecutor(workers=2).run(jobs)
        for left, right in zip(serial, parallel):
            _assert_results_identical(left, right)

    def test_preserves_job_order(self, tmp_path):
        config = tiny_config(duration=40.0)
        store = ResultStore(tmp_path)
        # Warm one job so the run mixes store hits and fresh simulations.
        ExperimentExecutor(store=store).run_one(config, "capacity", seed=2)
        executor = ExperimentExecutor(workers=2, store=store)
        jobs = [
            SimulationJob(config, "sqlb", 1),
            SimulationJob(config, "capacity", 2),
            SimulationJob(config, "sqlb", 3),
        ]
        with mock.patch.object(
            store_module,
            "_canonical_config",
            wraps=store_module._canonical_config,
        ) as builds:
            results = executor.run(jobs)
        assert [(r.method_name, r.seed) for r in results] == [
            ("sqlb", 1),
            ("capacity", 2),
            ("sqlb", 3),
        ]
        assert executor.simulations_run == 2
        # Pool results carry the job's own config object, so the two
        # puts reuse the JSON the three gets built.
        assert all(result.config is config for result in results)
        assert builds.call_count == 1

    def test_run_detailed_reports_ground_truth_hits(self, tmp_path):
        config = tiny_config(duration=40.0)
        store = ResultStore(tmp_path)
        ExperimentExecutor(store=store).run_one(config, "capacity", seed=2)

        executor = ExperimentExecutor(workers=1, store=store)
        detailed = executor.run_detailed(
            [
                SimulationJob(config, "sqlb", 1),
                SimulationJob(config, "capacity", 2),
            ]
        )
        assert [hit for _, hit in detailed] == [False, True]
        assert executor.simulations_run == 1
        # Store-less executors never report hits.
        bare = ExperimentExecutor(workers=1).run_detailed(
            [SimulationJob(config, "capacity", 2)]
        )
        assert [hit for _, hit in bare] == [False]
        # Fully warm: everything is a hit and nothing simulates.
        warm = ExperimentExecutor(workers=1, store=store).run_detailed(
            [SimulationJob(config, "capacity", 2)]
        )
        assert [hit for _, hit in warm] == [True]

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        """Acceptance: cold → warm re-run performs zero new simulations."""
        config = tiny_config(duration=40.0)
        jobs = [
            SimulationJob(config, method, seed)
            for method in ("sqlb", "capacity")
            for seed in (1, 2)
        ]
        store = ResultStore(tmp_path)
        cold = ExperimentExecutor(workers=2, store=store)
        cold_results = cold.run(jobs)
        assert cold.simulations_run == len(jobs)
        assert store.writes == len(jobs)

        warm = ExperimentExecutor(workers=2, store=store)
        warm_results = warm.run(jobs)
        assert warm.simulations_run == 0
        assert store.hits == len(jobs)
        for left, right in zip(cold_results, warm_results):
            _assert_results_identical(left, right)

    def test_registry_aliases_never_share_cache_entries(self, tmp_path):
        """knbest and knbest_score share a class-level method name; the
        store must key by the registry name so one alias's cached runs
        can never answer for the other."""
        config = tiny_config(duration=40.0)
        store = ResultStore(tmp_path)
        first = ExperimentExecutor(store=store)
        first.run_one(config, "knbest_score", seed=1)
        assert first.simulations_run == 1

        second = ExperimentExecutor(store=store)
        second.run_one(config, "knbest", seed=1)
        assert second.simulations_run == 1  # no false hit
        # And each alias warm-hits itself.
        third = ExperimentExecutor(store=store)
        third.run_one(config, "knbest_score", seed=1)
        third.run_one(config, "knbest", seed=1)
        assert third.simulations_run == 0


class TestWorkersFromEnvironment:
    def test_defaults_and_parses(self, monkeypatch):
        from repro.experiments.executor import WORKERS_ENV, workers_from_environment

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert workers_from_environment() == 1
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert workers_from_environment() == 4
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert workers_from_environment() == 1  # clamped

    def test_garbage_raises_named_error(self, monkeypatch):
        from repro.experiments.executor import WORKERS_ENV, workers_from_environment

        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            workers_from_environment()


class TestDefaultExecutorWiring:
    def test_configure_installs_and_reset_restores(self, tmp_path):
        executor = configure_default_executor(workers=2, cache_dir=tmp_path)
        assert get_default_executor() is executor
        assert executor.store is not None
        set_default_executor(None)
        assert get_default_executor() is not executor

    def test_run_repeated_uses_default_executor(self, tmp_path):
        executor = configure_default_executor(workers=1, cache_dir=tmp_path)
        config = tiny_config(duration=40.0)
        run_repeated(config, "sqlb", (1, 2))
        assert executor.simulations_run == 2
        # Same runs again: served from the store, not re-simulated.
        run_repeated(config, "sqlb", (1, 2))
        assert executor.simulations_run == 2
        assert executor.store.hits == 2

    def test_run_method_family_cold_then_warm(self, tmp_path):
        """A family re-request in a fresh executor re-simulates nothing."""
        config = tiny_config(duration=40.0)
        methods, seeds = ("sqlb", "capacity"), (1, 2)

        cold = configure_default_executor(workers=1, cache_dir=tmp_path)
        family = run_method_family(config, methods, seeds)
        assert cold.simulations_run == len(methods) * len(seeds)

        # A new executor simulates a fresh interpreter session sharing
        # the same on-disk store (configure also clears the lru memo).
        warm = configure_default_executor(workers=1, cache_dir=tmp_path)
        again = run_method_family(config, methods, seeds)
        assert warm.simulations_run == 0
        assert warm.store.hits == len(methods) * len(seeds)
        for method in methods:
            for left, right in zip(
                family[method].results, again[method].results
            ):
                _assert_results_identical(left, right)

    def test_replacing_executor_clears_family_memo(self, tmp_path):
        config = tiny_config(duration=40.0)
        first = configure_default_executor(workers=1)
        family = run_method_family(config, ("sqlb",), (1,))
        assert run_method_family(config, ("sqlb",), (1,)) is family
        configure_default_executor(workers=1)
        assert run_method_family(config, ("sqlb",), (1,)) is not family
