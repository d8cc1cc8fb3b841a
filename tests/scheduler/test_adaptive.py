"""Tests for adaptive seeding: CI-driven extension, caps, convergence."""

from __future__ import annotations

import math

import pytest

from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore
from repro.scheduler.adaptive import (
    AdaptiveConfig,
    AdaptiveController,
    extension_seeds,
)
from repro.scheduler.queue import WorkQueue
from repro.scheduler.worker import QueueWorker
from repro.sweeps.spec import SweepSpec

TTL = 30.0


def spec() -> SweepSpec:
    return SweepSpec(
        name="adaptive-unit",
        scenarios=("captive_fixed_80",),
        methods=("capacity",),
        seeds=(1, 2),
        scale="tiny",
    )


def executor_for(path) -> ExperimentExecutor:
    return ExperimentExecutor(workers=1, store=ResultStore(path))


class TestExtensionSeeds:
    def test_deterministic_ladder(self):
        assert extension_seeds((1, 2), 2) == (1009, 1011)
        assert extension_seeds((1, 2), 2) == (1009, 1011)  # replicated

    def test_skips_already_issued(self):
        assert extension_seeds((1009, 1013), 3) == (1011, 1015, 1017)


class TestAdaptiveConfig:
    def test_round_trips_through_payload(self):
        config = AdaptiveConfig(ci_threshold=0.25, max_seeds=6, seed_batch=3)
        assert AdaptiveConfig.from_payload(config.payload()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ci_threshold": -1.0, "max_seeds": 4},
            {"ci_threshold": 0.1, "max_seeds": 0},
            {"ci_threshold": 0.1, "max_seeds": 4, "seed_batch": 0},
            {"ci_threshold": 0.1, "max_seeds": 4, "metric": "qps"},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    def test_controller_requires_an_adaptive_queue(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())  # no adaptive payload
        with pytest.raises(ValueError, match="without adaptive"):
            AdaptiveController(queue, ResultStore(tmp_path / "store"))


class TestControllerDecisions:
    def test_waits_while_the_batch_is_incomplete(self, tmp_path):
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(ci_threshold=0.1, max_seeds=4).payload(),
        )
        controller = AdaptiveController(
            queue, ResultStore(tmp_path / "store")
        )
        [decision] = controller.step()
        assert decision.action == "waiting"
        assert decision.new_seeds == ()
        assert math.isnan(decision.halfwidth)
        assert controller.enqueued([decision]) == 0

    def test_converges_under_a_loose_threshold(self, tmp_path):
        """Acceptance: adaptive seeding demonstrably stops adding seeds
        once the CI threshold is met."""
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=100.0, max_seeds=10
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        report = QueueWorker(
            queue, executor=executor, owner="w", ttl=TTL
        ).run()
        # Only the two initial seeds ran: the CI was already tight.
        assert report.processed == 2
        assert queue.counts().drained
        controller = AdaptiveController(queue, executor.store)
        [decision] = controller.step()
        assert decision.action == "converged"
        assert decision.halfwidth <= 100.0
        assert decision.new_seeds == ()

    def test_extends_until_capped_under_a_tight_threshold(self, tmp_path):
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=1e-9, max_seeds=4, seed_batch=1
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        report = QueueWorker(
            queue, executor=executor, owner="w", ttl=TTL
        ).run()
        # 2 initial seeds, then 1-seed extensions up to the cap of 4.
        assert report.processed == 4
        issued = sorted({job.seed for job in queue.jobs()})
        assert issued == [1, 2, 1009, 1011]
        controller = AdaptiveController(queue, executor.store)
        [decision] = controller.step()
        assert decision.action == "capped"
        assert decision.halfwidth > 1e-9

    def test_batch_respects_the_remaining_budget(self, tmp_path):
        """A batch never overshoots max_seeds."""
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=1e-9, max_seeds=3, seed_batch=5
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        assert sorted({job.seed for job in queue.jobs()}) == [1, 2, 1009]

    def test_replicated_controllers_agree(self, tmp_path):
        """Two controllers stepping the same drained state derive the
        same extension, and the enqueue dedupe collapses it to one."""
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=1e-9, max_seeds=4, seed_batch=2
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        # Drain only the initial batch: max_jobs stops before extension.
        QueueWorker(
            queue, executor=executor, owner="w", ttl=TTL, max_jobs=2
        ).run()
        assert queue.counts().drained

        first = AdaptiveController(queue, executor.store)
        second = AdaptiveController(queue, executor.store)
        [d1] = first.step()
        assert d1.action == "extended"
        assert d1.new_seeds == (1009, 1011)
        pending_after_first = queue.counts().pending
        [d2] = second.step()
        # The replica sees the extension already issued and waits.
        assert d2.action == "waiting"
        assert queue.counts().pending == pending_after_first


class TestTerminalShortCircuit:
    def test_all_terminal_step_skips_directory_scans(self, tmp_path):
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=100.0, max_seeds=10
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        controller = AdaptiveController(queue, executor.store)
        [first] = controller.step()
        assert first.action == "converged"
        # With every scenario terminal, step() must not rescan the
        # queue directories (or read the store) at all.
        def _boom(*args, **kwargs):
            raise AssertionError("terminal step() touched the disk")

        controller._issued_seeds = _boom
        executor.store.get = _boom
        [cached] = controller.step()
        assert cached == first


class TestTornExtensionRepair:
    def test_stranded_extension_job_is_re_enqueued(self, tmp_path):
        """A crash between an extension's job-record write and its
        ticket write must not wedge the scenario in 'waiting'."""
        import json as jsonlib

        from repro.scheduler.queue import job_id

        two_methods = SweepSpec(
            name="torn",
            scenarios=("captive_fixed_80",),
            methods=("sqlb", "capacity"),
            seeds=(1, 2),
            scale="tiny",
        )
        queue = WorkQueue.init(
            tmp_path / "q",
            two_methods,
            adaptive=AdaptiveConfig(
                ci_threshold=100.0, max_seeds=4
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        assert queue.counts().drained

        # Simulate the torn extension: the sqlb record for seed 1009
        # was written (no ticket), the capacity record never was.
        # (The loose threshold means the real controller never extended
        # past the two initial seeds, so 1009 is genuinely torn state.)
        torn_id = job_id("captive_fixed_80", "sqlb", 1009)
        (queue.jobs_dir / f"{torn_id}.json").write_text(
            jsonlib.dumps(
                {
                    "id": torn_id,
                    "scenario": "captive_fixed_80",
                    "method": "sqlb",
                    "seed": 1009,
                    "key": "0" * 64,
                }
            )
        )
        controller = AdaptiveController(queue, executor.store)
        [decision] = controller.step()
        assert decision.action == "waiting"
        # The repair recreated the stranded seed's jobs for every
        # method (sqlb ticket + the whole missing capacity job)...
        counts = queue.counts()
        assert counts.pending == 2
        # ...and a worker can now finish the batch to a terminal state.
        QueueWorker(queue, executor=executor, owner="w2", ttl=TTL).run()
        [final] = AdaptiveController(queue, executor.store).step()
        assert final.action in ("converged", "capped")
        assert 1009 in final.seeds_done


class TestWrongStoreGuard:
    def test_missing_results_wait_instead_of_extending(self, tmp_path):
        """Done records whose results are absent from the configured
        store (typo'd --cache-dir) must read as 'cannot assess', not as
        high variance driving seeds to the cap."""
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=0.1, max_seeds=10, seed_batch=2
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        QueueWorker(
            queue, executor=executor, owner="w", ttl=TTL, max_jobs=2
        ).run()
        assert queue.counts().drained

        wrong_store = ResultStore(tmp_path / "typo")
        controller = AdaptiveController(queue, wrong_store)
        [decision] = controller.step()
        assert decision.action == "waiting"
        assert queue.counts().pending == 0  # nothing enqueued


class TestErrorParkedScenario:
    def test_error_cell_is_terminal_not_wedged(self, tmp_path):
        """A scenario with an error-parked cell must reach a terminal
        'error' verdict (and short-circuit), not wait forever."""
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(ci_threshold=0.1, max_seeds=4).payload(),
            max_attempts=1,
        )
        executor = executor_for(tmp_path / "store")
        # Park one cell as an error; complete the other normally.
        lease = queue.claim("w", TTL)
        assert queue.fail(lease, "poison") == "error"
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        assert queue.counts().drained

        controller = AdaptiveController(queue, executor.store)
        [decision] = controller.step()
        assert decision.action == "error"
        assert queue.counts().pending == 0  # nothing enqueued
        # Terminal: the next step short-circuits entirely.
        def _boom(*args, **kwargs):
            raise AssertionError("terminal step() touched the disk")

        controller._issued_seeds = _boom
        [cached] = controller.step()
        assert cached == decision


class TestCiMetricRegistry:
    def test_any_registry_metric_is_accepted(self):
        from repro.analysis.metrics import available_metrics

        for name in available_metrics():
            config = AdaptiveConfig(
                ci_threshold=0.1, max_seeds=4, metric=name
            )
            assert AdaptiveConfig.from_payload(config.payload()) == config

    def test_unknown_metric_names_the_registry(self):
        with pytest.raises(ValueError, match="available:"):
            AdaptiveConfig(
                ci_threshold=0.1, max_seeds=4, metric="wall_clock"
            )

    def test_departure_fraction_drives_convergence(self, tmp_path):
        """Captive runs have zero departures at every seed, so the
        departure-fraction CI is exactly 0 and the first complete
        batch converges — while response time would still be wide."""
        queue = WorkQueue.init(
            tmp_path / "q",
            spec(),
            adaptive=AdaptiveConfig(
                ci_threshold=0.0,
                max_seeds=6,
                metric="departure_fraction",
            ).payload(),
        )
        executor = executor_for(tmp_path / "store")
        QueueWorker(queue, executor=executor, owner="w", ttl=TTL).run()
        assert queue.counts().drained

        controller = AdaptiveController(queue, executor.store)
        [decision] = controller.step()
        assert decision.action == "converged"
        assert decision.halfwidth == 0.0
        assert decision.seeds_done == spec().seeds

    def test_default_metric_is_the_papers_headline(self):
        config = AdaptiveConfig(ci_threshold=0.1, max_seeds=4)
        assert config.metric == "response_time_post_warmup"
