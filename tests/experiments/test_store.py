"""Tests for the persistent result store."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import operator
import os
import struct
import threading
import time
import weakref
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.compare import compare_stores
from repro.analysis.figures import render_catalog
from repro.experiments import store as store_module
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore, cache_key, key_scope
from repro.model.strategic import StrategicSpec
from repro.scheduler.queue import WorkQueue
from repro.simulation.config import DepartureRules, WorkloadSpec, tiny_config
from repro.simulation.engine import ENGINE_VERSION, run_simulation
from repro.simulation.faults import FaultSpec, FlapSpec, OutageSpec
from repro.simulation.trace import record_trace, replay_config
from repro.sweeps.aggregate import sweep_summary
from repro.sweeps.runner import SweepRunner
from repro.sweeps.scenarios import SCALES, scenario_catalog
from repro.sweeps.spec import SweepSpec


@pytest.fixture(scope="module")
def captive_result():
    return run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)


@pytest.fixture(scope="module")
def autonomous_result():
    config = tiny_config(
        duration=120.0, workload=WorkloadSpec.fixed(1.0)
    ).with_departures(DepartureRules.autonomous(True))
    return run_simulation(config, "capacity", seed=5)


def _asdict_key(config, method: str, seed: int) -> str:
    """``cache_key`` in its original form, through ``dataclasses.asdict``."""
    config_payload = dataclasses.asdict(config)
    config_payload["workload"] = {
        name: value
        for name, value in config_payload["workload"].items()
        if value is not None
    }
    for name in ("faults", "strategic"):
        if config_payload.get(name) is None:
            config_payload.pop(name, None)
    payload = {
        "engine_version": ENGINE_VERSION,
        "format_version": store_module._FORMAT_VERSION,
        "method": str(method),
        "seed": int(seed),
        "config": config_payload,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestCacheKey:
    def test_matches_the_asdict_form(self, tmp_path):
        configs = [
            scenario.config
            for scale in SCALES
            for scenario in scenario_catalog(scale).values()
        ]
        base = tiny_config(duration=40.0)
        workloads = (
            WorkloadSpec.fixed(0.4),
            WorkloadSpec(),
            WorkloadSpec.burst(base=0.4, peak=1.0, start=0.4, end=0.6),
            WorkloadSpec.piecewise(((0.0, 0.4), (0.5, 0.9), (1.0, 0.4))),
        )
        for index, workload in enumerate(workloads):
            config = base.with_workload(workload)
            trace = tmp_path / f"trace{index}.json"
            record_trace(config, "sqlb", 1, trace)
            configs += [config, replay_config(config, trace)]
        faults = FaultSpec(
            outages=(OutageSpec(fraction=0.25, start=0.4, end=0.6),),
            flaps=(FlapSpec(fraction=0.15, period=0.1),),
        )
        strategic = StrategicSpec(fraction=0.5, mode="exaggerate", gain=0.6)
        configs += [
            base.with_faults(faults).with_strategic(strategic),
            base.with_faults(FaultSpec()),
            base.with_strategic(strategic),
        ]
        assert {config.workload.kind for config in configs} == {
            "fixed", "ramp", "burst", "piecewise", "trace",
        }
        assert any(c.faults and c.strategic for c in configs)
        assert any(not (c.faults or c.strategic) for c in configs)
        # Outside a scope, then inside one, where each config's second
        # key reuses the JSON its first one built.
        for scope in (contextlib.nullcontext(), key_scope()):
            with scope:
                for config in configs:
                    for method, seed in (("sqlb", 1), ("knbest_score", 23)):
                        assert cache_key(config, method, seed) == (
                            _asdict_key(config, method, seed)
                        )

    def test_stable_across_calls(self):
        config = tiny_config()
        assert cache_key(config, "sqlb", 1) == cache_key(config, "sqlb", 1)

    def test_sensitive_to_every_component(self):
        config = tiny_config()
        base = cache_key(config, "sqlb", 1)
        assert cache_key(config, "sqlb", 2) != base
        assert cache_key(config, "capacity", 1) != base
        assert cache_key(tiny_config(duration=121.0), "sqlb", 1) != base
        nested = tiny_config(
            departures=DepartureRules.autonomous(False)
        )
        assert cache_key(nested, "sqlb", 1) != base

    def test_equal_configs_share_a_key(self):
        # Two separately constructed but equal configs must collide.
        assert cache_key(tiny_config(), "sqlb", 1) == cache_key(
            tiny_config(), "sqlb", 1
        )

    def test_fixed_ramp_keys_stable_across_releases(self):
        """Frozen PR 1 keys: stores populated before the burst/piecewise
        workload kinds existed must stay valid.  Unset (None) workload
        knobs are dropped from the key payload, so adding optional
        fields to WorkloadSpec must never shift these hashes (an
        intentional semantic change shifts them via ENGINE_VERSION)."""
        from repro.simulation.config import scaled_config

        for scope in (contextlib.nullcontext(), key_scope()):
            with scope:
                assert cache_key(tiny_config(), "sqlb", 11) == (
                    "0133888f71ac6fb810cec6978344380b8c9c3ad6737b7dce3564a8b9f3fa3e82"
                )
                assert cache_key(scaled_config(), "capacity", 23) == (
                    "a49dceb50f3fbd46d705aa49bf9c85359821bbd1940aaba455175d2ca1c18e57"
                )

    def test_new_workload_kinds_get_distinct_keys(self):
        burst = tiny_config(
            workload=WorkloadSpec.burst(base=0.4, peak=1.0, start=0.4, end=0.6)
        )
        piecewise = tiny_config(
            workload=WorkloadSpec.piecewise(((0.0, 0.4), (1.0, 0.4)))
        )
        keys = {
            cache_key(tiny_config(), "sqlb", 1),
            cache_key(burst, "sqlb", 1),
            cache_key(piecewise, "sqlb", 1),
            cache_key(tiny_config(workload=WorkloadSpec.fixed(0.4)), "sqlb", 1),
        }
        assert len(keys) == 4


#: The benchmark's seed grid: four tiny scenarios, the three paper
#: methods, ten seeds.
GRID_SPEC = SweepSpec(
    name="key-scope-grid",
    scenarios=(
        "autonomous_full", "provider_churn_stress", "captive_flap", "diurnal",
    ),
    seeds=tuple(range(1, 11)),
    scale="tiny",
)


@pytest.fixture
def config_builds():
    """Count the canonical config JSON strings built in the test."""
    with mock.patch.object(
        store_module,
        "_canonical_config",
        wraps=store_module._canonical_config,
    ) as builds:
        yield builds


@pytest.fixture(scope="module")
def warm_grid(tmp_path_factory):
    """A store holding every run of ``GRID_SPEC``, each entry one short
    run's payload filed under the grid job's key (reads never check a
    payload against its key), plus the cold shard's manifest."""
    root = tmp_path_factory.mktemp("grid")
    store = ResultStore(root)
    template = run_simulation(tiny_config(duration=20.0), "sqlb", seed=1)
    for sweep_job in GRID_SPEC.expand():
        job = sweep_job.job
        store.put(
            dataclasses.replace(template, config=job.config, seed=job.seed),
            method=job.method,
        )
    SweepRunner(ExperimentExecutor(store=ResultStore(root))).run_shard(
        GRID_SPEC
    )
    return root


class TestKeyScope:
    def test_equal_configs_are_not_keyed_by_value(self, config_builds):
        whole, fractional = tiny_config(duration=40), tiny_config(duration=40.0)
        assert whole == fractional
        with key_scope():
            keys = [
                cache_key(config, "sqlb", 1)
                for config in (whole, fractional, whole, fractional)
            ]
        assert keys[0] != keys[1]
        assert keys == [
            cache_key(whole, "sqlb", 1), cache_key(fractional, "sqlb", 1),
        ] * 2
        # Two objects in the scope, two more keyed outside it.
        assert config_builds.call_count == 4

    def test_nested_scopes_fold_into_the_outermost(self, config_builds):
        config = tiny_config(duration=41.0)
        with key_scope():
            cache_key(config, "sqlb", 1)
            with key_scope():
                cache_key(config, "sqlb", 2)
            cache_key(config, "capacity", 1)
        assert config_builds.call_count == 1
        cache_key(config, "sqlb", 1)
        assert config_builds.call_count == 2

    def test_nothing_is_retained_after_the_scope(self):
        config = tiny_config(duration=42.0)
        ref = weakref.ref(config)
        with key_scope():
            key = cache_key(config, "sqlb", 1)
            del config
            gc.collect()
            assert ref() is not None  # the scope holds what it keyed
        gc.collect()
        assert ref() is None
        assert key == cache_key(tiny_config(duration=42.0), "sqlb", 1)

    def test_scope_is_per_thread(self, config_builds):
        config = tiny_config(duration=43.0)
        keys = []

        def other_thread():
            keys.extend(cache_key(config, "sqlb", seed) for seed in (1, 2))

        with key_scope():
            cache_key(config, "sqlb", 1)
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        assert config_builds.call_count == 3
        assert keys == [cache_key(config, "sqlb", seed) for seed in (1, 2)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_outside_the_scope(self):
        config = tiny_config(duration=44.0)
        with key_scope():
            cache_key(config, "sqlb", 1)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                code = 1
                try:
                    code = int(
                        getattr(store_module._scopes, "configs", None)
                        is not None
                    )
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_warm_shard_builds_each_config_once(self, warm_grid, config_builds):
        executor = ExperimentExecutor(store=ResultStore(warm_grid))
        report = SweepRunner(executor).run_shard(GRID_SPEC)
        assert (report.jobs, report.store_hits) == (120, 120)
        # 120 gets and 120 manifest keys from four config objects.
        assert config_builds.call_count == 4
        manifest = json.loads(report.manifest_path.read_text())
        assert [job["key"] for job in manifest["jobs"]] == [
            cache_key(sweep_job.job.config, sweep_job.method, sweep_job.seed)
            for sweep_job in GRID_SPEC.expand()
        ]

    def test_summary_and_render_build_each_config_once(
        self, warm_grid, config_builds, tmp_path
    ):
        executor = ExperimentExecutor(store=ResultStore(warm_grid))
        sweep_summary(GRID_SPEC, executor)
        assert (executor.simulations_run, executor.store.hits) == (0, 120)
        assert config_builds.call_count == 4
        report = render_catalog(warm_grid, tmp_path / "figures")
        assert report.written and not report.skipped
        assert config_builds.call_count == 8

    def test_queue_init_and_compare_build_each_config_once(
        self, warm_grid, config_builds, tmp_path
    ):
        queue = WorkQueue.init(tmp_path / "queue", GRID_SPEC)
        assert config_builds.call_count == 4
        # Each store's cells carry their own four config objects.
        report = compare_stores(warm_grid, warm_grid)
        assert report.ok and len(report.verdicts) == 12 * 4
        assert config_builds.call_count == 4 + 8
        queued = {
            json.loads(path.read_text())["key"]
            for path in queue.jobs_dir.glob("*.json")
        }
        assert queued == {
            cache_key(sweep_job.job.config, sweep_job.method, sweep_job.seed)
            for sweep_job in GRID_SPEC.expand()
        }


class TestRoundTrip:
    def _assert_round_trip(self, store, result):
        store.put(result)
        loaded = store.get(result.config, result.method_name, result.seed)
        assert loaded is not None

        assert loaded.method_name == result.method_name
        assert loaded.seed == result.seed
        assert loaded.config == result.config
        assert loaded.queries_issued == result.queries_issued
        assert loaded.queries_served == result.queries_served
        assert loaded.queries_unserved == result.queries_unserved
        assert loaded.initial_providers == result.initial_providers
        assert loaded.initial_consumers == result.initial_consumers

        # Scalars and every array must survive bit-exactly (NaN included).
        for attribute in ("response_time_mean", "response_time_post_warmup"):
            left = getattr(loaded, attribute)
            right = getattr(result, attribute)
            assert left == right or (np.isnan(left) and np.isnan(right))
        np.testing.assert_array_equal(loaded.times(), result.times())
        assert set(loaded.collector.names) == set(result.collector.names)
        for name in result.collector.names:
            assert np.array_equal(
                loaded.series(name), result.series(name), equal_nan=True
            ), name
        assert set(loaded.final) == set(result.final)
        for name, values in result.final.items():
            assert loaded.final[name].dtype == values.dtype, name
            assert np.array_equal(
                loaded.final[name],
                values,
                equal_nan=values.dtype.kind == "f",
            ), name
        assert loaded.departures == result.departures

    def test_captive_round_trip(self, tmp_path, captive_result):
        self._assert_round_trip(ResultStore(tmp_path), captive_result)

    def test_autonomous_round_trip(self, tmp_path, autonomous_result):
        """Departure records and fractions survive serialization."""
        store = ResultStore(tmp_path)
        self._assert_round_trip(store, autonomous_result)
        loaded = store.get(
            autonomous_result.config,
            autonomous_result.method_name,
            autonomous_result.seed,
        )
        assert (
            loaded.provider_departure_fraction()
            == autonomous_result.provider_departure_fraction()
        )
        assert (
            loaded.consumer_departure_fraction()
            == autonomous_result.consumer_departure_fraction()
        )


class TestStoreBehaviour:
    def test_miss_on_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "never_created")
        assert store.get(tiny_config(), "sqlb", 1) is None
        assert store.misses == 1
        assert len(store) == 0

    def test_contains_and_len(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        config = captive_result.config
        assert not store.contains(config, "sqlb", 3)
        store.put(captive_result)
        assert store.contains(config, "sqlb", 3)
        assert len(store) == 1

    def test_clear_removes_everything(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        store.put(captive_result)
        assert store.clear() == 1
        assert len(store) == 0
        assert store.get(captive_result.config, "sqlb", 3) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert store.get(captive_result.config, "sqlb", 3) is None
        # A fresh put repairs the entry.
        store.put(captive_result)
        assert store.get(captive_result.config, "sqlb", 3) is not None

    def test_schema_mismatched_entry_is_a_miss(self, tmp_path, captive_result):
        """Valid JSON missing expected keys must degrade to a miss."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.json").write_text('{"method_name": "sqlb"}')
        assert store.get(captive_result.config, "sqlb", 3) is None
        assert store.misses == 1

    def test_put_is_idempotent(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        first = store.put(captive_result)
        second = store.put(captive_result)
        assert first == second
        assert len(store) == 1

    def test_metadata_is_plain_json(self, tmp_path, captive_result):
        """The sidecar stays greppable: no pickles, plain JSON."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        meta = json.loads((tmp_path / f"{key}.json").read_text())
        assert meta["method_name"] == "sqlb"
        assert meta["seed"] == 3
        assert meta["engine_version"]

class TestVerify:
    def test_clean_store(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        store.put(captive_result)
        report = store.verify()
        assert report.clean
        assert report.entries == 1
        assert store.verify(deep=False).clean

    def test_empty_and_missing_roots_are_clean(self, tmp_path):
        assert ResultStore(tmp_path / "never_created").verify().clean

    def test_orphan_npz_is_flagged(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.json").unlink()
        # Judged past the litter rule's gate: a crashed put, not a
        # live one.
        report = store.verify(now=time.time() + 10_000.0)
        assert not report.clean
        assert report.orphan_npz == (key,)
        assert report.orphan_npz_in_flight == ()

    def test_orphan_npz_is_a_miss_for_every_read(
        self, tmp_path, captive_result
    ):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        config = captive_result.config
        assert store.load_series(config, "sqlb", 3) is not None
        (tmp_path / f"{key}.json").unlink()
        assert store.verify().orphan_npz_in_flight == (key,)
        misses = store.misses
        assert store.get(config, "sqlb", 3) is None
        assert store.load_series(config, "sqlb", 3) is None
        assert store.misses == misses + 2

    def test_orphan_json_is_flagged(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.npz").unlink()
        report = store.verify()
        assert report.orphan_json == (key,)

    def test_deep_verify_catches_torn_payloads(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        payload = (tmp_path / f"{key}.npz").read_bytes()
        (tmp_path / f"{key}.npz").write_bytes(payload[: len(payload) // 2])
        assert store.verify(deep=False).clean  # pairing alone can't see it
        report = store.verify(deep=True)
        assert report.unreadable == (key,)

    def test_deep_verify_flags_what_get_misses_on(
        self, tmp_path, captive_result
    ):
        """The fixture of ``test_schema_mismatched_entry_is_a_miss``:
        parseable halves ``get`` can never serve are ``unreadable``."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.json").write_text('{"method_name": "sqlb"}')
        assert store.get(captive_result.config, "sqlb", 3) is None
        assert store.verify(deep=False).clean
        assert store.verify(deep=True).unreadable == (key,)

    def test_unrebuildable_payload_is_unreadable(
        self, tmp_path, captive_result
    ):
        """A well-formed payload ``get`` cannot rebuild (one
        response-time scalar instead of two) misses and is flagged."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        npz = tmp_path / f"{key}.npz"
        members = _members(npz.read_bytes())
        members["response_times.npy"] = _npy(np.zeros(1))
        npz.write_bytes(_zip(members))
        assert store.get(captive_result.config, "sqlb", 3) is None
        assert store.verify(deep=True).unreadable == (key,)

    def test_zero_byte_payload_is_a_miss_and_pruned(
        self, tmp_path, captive_result
    ):
        """What a power loss after the rename leaves without durable
        writes: every reader misses, and prune repairs it."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        config = captive_result.config
        (tmp_path / f"{key}.npz").write_bytes(b"")
        assert store.get(config, "sqlb", 3) is None
        assert store.load_series(config, "sqlb", 3) is None
        assert (store.hits, store.misses) == (0, 2)
        report = store.verify(deep=True)
        assert report.unreadable == (key,)
        assert store.prune_invalid(report) == 2
        assert store.verify().clean
        store.put(captive_result)
        assert store.get(config, "sqlb", 3) is not None

    def test_prune_invalid_restores_clean(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.json").unlink()
        # Aged past the litter rule's gate: a crashed put, not a live one.
        old = time.time() - 10_000.0
        os.utime(tmp_path / f"{key}.npz", (old, old))
        removed = store.prune_invalid()
        assert removed == 1
        assert store.verify().clean
        # A fresh put fully repairs the entry.
        store.put(captive_result)
        assert store.contains(captive_result.config, "sqlb", 3)

    def test_prune_invalid_keeps_a_live_puts_payload(
        self, tmp_path, captive_result
    ):
        """Between a put's two writes the payload is a fresh orphan;
        pruning it would lose the entry once the commit marker lands."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        marker = tmp_path / f"{key}.json"
        committed = marker.read_bytes()
        marker.unlink()
        report = store.verify()
        assert report.orphan_npz_in_flight == (key,)
        assert report.orphan_npz == ()
        assert report.clean
        assert store.prune_invalid(report) == 0
        assert (tmp_path / f"{key}.npz").exists()
        marker.write_bytes(committed)  # the put's second write lands
        assert store.verify().clean
        assert store.get(captive_result.config, "sqlb", 3) is not None

    def test_prune_from_a_host_ahead_keeps_a_live_puts_payload(
        self, tmp_path, captive_result, monkeypatch
    ):
        """Orphan ages are judged by the filesystem's clock: a host two
        hours ahead must not take a seconds-old payload for litter."""
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        (tmp_path / f"{key}.json").unlink()
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        assert store.prune_invalid() == 0
        assert (tmp_path / f"{key}.npz").exists()

    def test_clean_store_is_never_probed(
        self, tmp_path, captive_result, monkeypatch
    ):
        """Only an orphan payload needs the filesystem clock; verifying
        a clean store writes nothing into it."""

        def _boom(directory):
            raise AssertionError("probed the clock of a clean store")

        store = ResultStore(tmp_path)
        store.put(captive_result)
        monkeypatch.setattr(store_module, "filesystem_now", _boom)
        assert store.verify().clean

    def test_temp_litter_is_ignored(self, tmp_path, captive_result):
        store = ResultStore(tmp_path)
        store.put(captive_result)
        (tmp_path / ".stage.partial").write_bytes(b"x")
        assert store.verify().clean


class TestWriteOrder:
    def test_json_is_the_commit_marker(self, tmp_path, captive_result):
        # put() writes npz strictly before json; killing the second
        # write must leave a store that reads as a miss, never a
        # half-entry that reads as a hit.
        from repro.reliability import FailpointError, failpoints_session

        store = ResultStore(tmp_path)
        with failpoints_session("store.write.before_replace:raise:2"):
            with pytest.raises(FailpointError):
                store.put(captive_result)
        key = cache_key(captive_result.config, "sqlb", 3)
        assert (tmp_path / f"{key}.npz").exists()
        assert not (tmp_path / f"{key}.json").exists()
        assert not store.contains(captive_result.config, "sqlb", 3)
        assert store.get(captive_result.config, "sqlb", 3) is None
        assert store.verify().orphan_npz_in_flight == (key,)
        # Idempotent redo commits the entry.
        store.put(captive_result)
        assert store.contains(captive_result.config, "sqlb", 3)
        assert store.verify().clean

    def test_killed_first_write_leaves_no_trace(self, tmp_path, captive_result):
        from repro.reliability import FailpointError, failpoints_session

        store = ResultStore(tmp_path)
        with failpoints_session("store.write.before_replace:raise:1"):
            with pytest.raises(FailpointError):
                store.put(captive_result)
        key = cache_key(captive_result.config, "sqlb", 3)
        assert not (tmp_path / f"{key}.npz").exists()
        assert not (tmp_path / f"{key}.json").exists()


class TestDurableWrites:
    def test_durable_put_round_trips(self, tmp_path, captive_result):
        from repro.reliability import durable_writes_session

        store = ResultStore(tmp_path)
        with durable_writes_session(True):
            store.put(captive_result)
        loaded = store.get(captive_result.config, "sqlb", 3)
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.times(), captive_result.times()
        )


def _npy(array: np.ndarray, **kwargs) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, **kwargs)
    return buffer.getvalue()


def _zip(
    members: dict[str, bytes],
    compression: int = zipfile.ZIP_DEFLATED,
    **directory,
) -> bytes:
    """``members`` as ``writestr`` writes them.  ``directory`` sets
    ``ZipInfo`` attributes after the local headers are written, so they
    reach the central directory alone."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression) as archive:
        for name, data in members.items():
            archive.writestr(name, data)
        for info in archive.filelist:
            for attribute, value in directory.items():
                setattr(info, attribute, value)
    return buffer.getvalue()


def _members(payload: bytes) -> dict[str, bytes]:
    with zipfile.ZipFile(io.BytesIO(payload)) as archive:
        return {info.filename: archive.read(info) for info in archive.infolist()}


def _flip(payload: bytes, at: int, mask: int) -> bytes:
    return payload[:at] + bytes([payload[at] ^ mask]) + payload[at + 1 :]


def _flip_directory_byte(payload: bytes, offset: int, mask: int) -> bytes:
    """The payload with one byte of its first zip directory entry
    flipped; the end record's last fields locate the directory."""
    directory = int.from_bytes(payload[-6:-2], "little")
    return _flip(payload, directory + offset, mask)


def _bad_crc(payload: bytes) -> bytes:
    return _flip_directory_byte(payload, 16, 0xFF)


def _with_times(payload: bytes, times: bytes) -> bytes:
    return _zip({**_members(payload), "times.npy": times})


def _with_comment(payload: bytes) -> bytes:
    """The archive with the comment ``zipfile`` would write after its end
    record."""
    return payload[:-2] + struct.pack("<H", 4) + b"note"


def _zip64_end(payload: bytes) -> bytes:
    """The archive rebuilt with zip64 end records, as ``zipfile`` writes
    them past 65,535 members."""
    with mock.patch.object(zipfile, "ZIP_FILECOUNT_LIMIT", 0):
        return _zip(_members(payload))


def _zip64_local_headers(
    payload: bytes, version: int, placeholders: bool
) -> bytes:
    """``put``'s archive with every local header in one interpreter's
    form.  numpy writes each member with ``force_zip64``, which adds a
    20-byte zip64 size record; beside it Python 3.10 keeps the real
    sizes and version 20, 3.11 and later write 0xFFFFFFFF and version
    45."""
    out = bytearray(payload)
    with zipfile.ZipFile(io.BytesIO(payload)) as archive:
        for info in archive.infolist():
            at = info.header_offset
            assert struct.unpack_from("<H", out, at + 28) == (20,)
            sizes = (
                (0xFFFFFFFF, 0xFFFFFFFF)
                if placeholders
                else (info.compress_size, info.file_size)
            )
            struct.pack_into("<H", out, at + 4, version)
            struct.pack_into("<LL", out, at + 18, *sizes)
    return bytes(out)


_TIMES = np.linspace(0.0, 40.0, 9)

#: Each form ``put`` never writes, built from a good payload.  Most
#: replace ``times``, the one member every read decodes.
_REFUSED = {
    "header_version_2": lambda p: _with_times(p, _npy(_TIMES, version=(2, 0))),
    "fortran_order": lambda p: _with_times(
        p, _npy(np.asfortranarray(np.ones((3, 2))))
    ),
    "object_dtype": lambda p: _with_times(
        p, _npy(np.array([0.0, None], dtype=object), allow_pickle=True)
    ),
    "payload_too_long": lambda p: _with_times(p, _npy(_TIMES) + bytes(8)),
    "payload_too_short": lambda p: _with_times(p, _npy(_TIMES)[:-8]),
    "bad_crc": _bad_crc,
    # A corrupt comment length makes zipfile swallow every later member
    # silently, leaving ``times`` alone as a plausible-looking payload.
    "swallowed_members": lambda p: _flip_directory_byte(p, 33, 0x80),
    "non_npy_member": lambda p: _zip({**_members(p), "notes.txt": b"x"}),
    "stored_members": lambda p: _zip(_members(p), zipfile.ZIP_STORED),
    "truncated": lambda p: p[: len(p) // 2],
    "zero_bytes": lambda p: b"",
    "archive_comment": _with_comment,
    "leading_bytes": lambda p: bytes(8) + p,
    "trailing_bytes": lambda p: p + bytes(8),
    "zip64_end_record": _zip64_end,
    # An extended-timestamp field: tag "UT", 5 bytes, mtime only.
    "directory_extra": lambda p: _zip(
        _members(p), extra=b"UT\x05\x00\x01\x00\x00\x00\x00"
    ),
    "encrypted_flag": lambda p: _zip(_members(p), flag_bits=0x1),
    "patch_flag": lambda p: _zip(_members(p), flag_bits=0x20),
    "local_magic": lambda p: _flip(p, 0, 0xFF),
    # "times.npy" becomes "Times.npy" in the first local header only.
    "local_name": lambda p: _flip(p, 30, 0x20),
    "offset_past_end": lambda p: _flip_directory_byte(p, 45, 0x80),
    "size_past_end": lambda p: _flip_directory_byte(p, 23, 0x80),
}

#: The local-header forms ``put`` writes across Python versions, and
#: the form ``writestr`` writes: no extra field at all.
_ACCEPTED = {
    "python_3_10": lambda p: _zip64_local_headers(p, 20, placeholders=False),
    "python_3_11": lambda p: _zip64_local_headers(p, 45, placeholders=True),
    "writestr": lambda p: _zip(_members(p)),
}


def _same_result(left, right) -> bool:
    """Two results hold the same bytes: every array, scalar and record."""

    def arrays(result) -> dict[str, bytes]:
        return {
            "times": result.times().tobytes(),
            "response": np.array(
                [result.response_time_mean, result.response_time_post_warmup]
            ).tobytes(),
            **{
                f"series__{name}": result.series(name).tobytes()
                for name in result.collector.names
            },
            **{
                f"final__{name}": values.tobytes() + values.dtype.str.encode()
                for name, values in result.final.items()
            },
        }

    records = operator.attrgetter(
        "departures",
        "queries_issued",
        "queries_served",
        "queries_unserved",
        "initial_providers",
        "initial_consumers",
    )
    return arrays(left) == arrays(right) and records(left) == records(right)


class TestReader:
    """The one ``.npz`` reader behind ``get``, ``load_series`` and deep
    ``verify``."""

    @pytest.fixture(scope="class")
    def payload_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("payloads")

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                hnp.arrays(
                    np.float64,
                    st.integers(0, 64),
                    elements=st.floats(allow_subnormal=True),
                ),
                hnp.arrays(np.int64, st.integers(0, 64)),
                hnp.arrays(np.bool_, st.integers(0, 64)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @example(
        [
            np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310]),
            np.array([], dtype=np.int64),
            np.array([True, False]),
        ]
    )
    def test_agrees_with_np_load(self, payload_dir, arrays):
        path = payload_dir / "payload.npz"
        np.savez_compressed(
            path, **{f"m{i}": array for i, array in enumerate(arrays)}
        )
        payload = store_module._Payload(path)
        with np.load(path) as reference:
            assert sorted(payload.members) == sorted(reference.files)
            for name in reference.files:
                expected = reference[name]
                got = payload.array(name)
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
                assert got.flags.writeable and got.flags.owndata

    @pytest.mark.parametrize("form", sorted(_REFUSED))
    def test_refused_forms_are_misses_and_unreadable(
        self, tmp_path, captive_result, form
    ):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        npz = tmp_path / f"{key}.npz"
        good = npz.read_bytes()
        # The rebuilt control archive is served: only the form differs.
        npz.write_bytes(_zip(_members(good)))
        assert store.get(captive_result.config, "sqlb", 3) is not None
        npz.write_bytes(_REFUSED[form](good))
        config = captive_result.config
        assert store.get(config, "sqlb", 3) is None
        assert store.load_series(config, "sqlb", 3) is None
        assert (store.hits, store.misses) == (1, 2)
        assert store.verify(deep=True).unreadable == (key,)

    @pytest.mark.parametrize("form", sorted(_ACCEPTED))
    def test_accepted_local_header_forms_are_identical_hits(
        self, tmp_path, captive_result, form
    ):
        store = ResultStore(tmp_path)
        key = store.put(captive_result)
        npz = tmp_path / f"{key}.npz"
        reference = store_module._Payload(npz)
        expected = {name: reference.array(name) for name in reference.members}
        npz.write_bytes(_ACCEPTED[form](npz.read_bytes()))
        # zipfile reads the form too: it is a zip put can write.
        with np.load(npz) as archive:
            assert sorted(archive.files) == sorted(expected)
        payload = store_module._Payload(npz)
        assert list(payload.members) == list(expected)
        for name, array in expected.items():
            assert payload.array(name).tobytes() == array.tobytes()
        loaded = store.get(captive_result.config, "sqlb", 3)
        assert _same_result(loaded, captive_result)
        assert store.verify(deep=True).clean

    @pytest.fixture(scope="class")
    def mutable_entry(self, tmp_path_factory, captive_result):
        """A stored entry, its payload path and bytes, and the byte
        offsets of the payload's zip records."""
        root = tmp_path_factory.mktemp("mutations")
        store = ResultStore(root)
        npz = root / f"{store.put(captive_result)}.npz"
        good = npz.read_bytes()
        with zipfile.ZipFile(io.BytesIO(good)) as archive:
            # Each local header: 30 fixed bytes, the name, the zip64
            # record's 20.
            headers = [
                at
                for info in archive.infolist()
                for at in range(
                    info.header_offset,
                    info.header_offset + 30 + len(info.filename) + 20,
                )
            ]
            directory = archive.start_dir
        records = sorted(set(headers) | set(range(directory, len(good))))
        return store, npz, good, records

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_flipped_or_truncated_payload_is_a_miss_or_identical_hit(
        self, mutable_entry, captive_result, data
    ):
        store, npz, good, records = mutable_entry
        # Half the positions fall in the zip records, where a flip can
        # change the structure rather than only a member's CRC.
        at = data.draw(
            st.one_of(st.integers(0, len(good) - 1), st.sampled_from(records))
        )
        if data.draw(st.booleans(), label="truncate"):
            mutated = good[:at]
        else:
            mutated = _flip(good, at, data.draw(st.integers(1, 255)))
        npz.write_bytes(mutated)
        config = captive_result.config
        hits, misses = store.hits, store.misses
        loaded = store.get(config, "sqlb", 3)
        series = store.load_series(config, "sqlb", 3)
        assert store.hits - hits == (loaded is not None) + (series is not None)
        assert store.misses - misses == (loaded is None) + (series is None)
        if loaded is not None:
            assert _same_result(loaded, captive_result)
        if series is not None:
            assert series.times.tobytes() == captive_result.times().tobytes()
            assert set(series.series) == set(captive_result.collector.names)
            for name, values in series.series.items():
                assert values.tobytes() == captive_result.series(name).tobytes()

    def test_bad_crc_is_caught_by_the_member_read(
        self, tmp_path, captive_result
    ):
        store = ResultStore(tmp_path)
        npz = tmp_path / f"{store.put(captive_result)}.npz"
        npz.write_bytes(_bad_crc(npz.read_bytes()))
        payload = store_module._Payload(npz)
        first = next(iter(payload.members))
        with pytest.raises(zipfile.BadZipFile, match="CRC"):
            payload.array(first)

    def test_one_header_parse_per_distinct_header(
        self, tmp_path, monkeypatch, captive_result, autonomous_result
    ):
        store = ResultStore(tmp_path)
        for result in (captive_result, autonomous_result):
            store.put(result)
        headers = set()
        for npz in tmp_path.glob("*.npz"):
            for raw in _members(npz.read_bytes()).values():
                headers.add(raw[8 : 10 + int.from_bytes(raw[8:10], "little")])
        parse = np.lib.format.read_array_header_1_0
        calls = []

        def counting_parse(fp, *args, **kwargs):
            calls.append(fp)
            return parse(fp, *args, **kwargs)

        monkeypatch.setattr(
            np.lib.format, "read_array_header_1_0", counting_parse
        )
        store_module._npy_header.cache_clear()
        for result in (captive_result, autonomous_result):
            assert store.get(result.config, result.method_name, result.seed)
            assert store.load_series(
                result.config, result.method_name, result.seed
            )
        assert store.verify(deep=True).clean
        assert 1 < len(calls) == len(headers)
        assert store_module._npy_header.cache_info().maxsize <= 1024

    def test_load_series_decodes_only_what_it_needs(
        self, tmp_path, monkeypatch, captive_result
    ):
        store = ResultStore(tmp_path)
        store.put(captive_result)
        decoded = []
        array = store_module._Payload.array

        def recording_array(payload, name):
            decoded.append(name)
            return array(payload, name)

        monkeypatch.setattr(store_module._Payload, "array", recording_array)
        loaded = store.load_series(
            captive_result.config, "sqlb", 3, ("response_time_mean",)
        )
        assert loaded.names == ("response_time_mean",)
        assert decoded == ["times", "series__response_time_mean"]
        np.testing.assert_array_equal(
            loaded.series["response_time_mean"],
            captive_result.series("response_time_mean"),
        )
