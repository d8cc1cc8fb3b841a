"""Opt-in per-job profiling: off by default, per-job dumps, hotspots."""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.experiments.executor import ExperimentExecutor, SimulationJob
from repro.simulation.config import scaled_config
from repro.telemetry import profiling
from repro.telemetry.profiling import (
    PROFILE_DIR_ENV,
    active_profile_dir,
    collect_hotspots,
    format_hotspots,
    profile_job,
)


def _fingerprint(result) -> str:
    """Bit-identity fingerprint (same shape as test_bit_identity's)."""
    digest = hashlib.sha256()
    digest.update(result.times().tobytes())
    for name in sorted(result.collector.names):
        digest.update(name.encode())
        digest.update(result.series(name).tobytes())
    return digest.hexdigest()


@pytest.fixture(autouse=True)
def clean_profile_env(monkeypatch):
    monkeypatch.delenv(PROFILE_DIR_ENV, raising=False)
    # Drop the pid cache so each test re-resolves from its own env.
    profiling._switch.reset()
    yield
    profiling._switch.reset()


class TestActivation:
    def test_off_by_default(self):
        assert active_profile_dir() is None

    def test_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        assert active_profile_dir() == tmp_path

    def test_blank_env_stays_off(self, monkeypatch):
        monkeypatch.setenv(PROFILE_DIR_ENV, "  ")
        assert active_profile_dir() is None

    def test_disabled_context_touches_no_files(self, tmp_path):
        with profile_job(None):
            pass
        assert list(tmp_path.iterdir()) == []


class TestProfileJob:
    def test_one_dump_per_job_atomic(self, tmp_path):
        for _ in range(2):
            with profile_job(tmp_path):
                sum(range(1000))
        dumps = sorted(tmp_path.glob("profile-*.pstats"))
        assert len(dumps) == 2
        # No dot-temp litter once the context exits cleanly.
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_dump_survives_job_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with profile_job(tmp_path):
                raise RuntimeError("job failed")
        assert len(list(tmp_path.glob("profile-*.pstats"))) == 1


class TestHotspots:
    def test_aggregates_all_dumps(self, tmp_path):
        for _ in range(3):
            with profile_job(tmp_path):
                sorted(range(500))
        report = collect_hotspots(tmp_path, top=5)
        assert report["jobs"] == 3
        assert report["calls"] > 0
        assert len(report["rows"]) <= 5
        assert report["rows"] == sorted(
            report["rows"],
            key=lambda row: (-row["cumtime_s"], row["function"]),
        )
        text = format_hotspots(report)
        assert "jobs 3" in text

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_hotspots(tmp_path)


class TestExecutorIntegration:
    def test_executed_job_dumps_profile(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path / "prof"))
        executor = ExperimentExecutor(workers=1, store=None)
        config = scaled_config(duration=30.0)
        executor.run([SimulationJob(config=config, method="sqlb", seed=1)])
        dumps = list((tmp_path / "prof").glob("profile-*.pstats"))
        assert len(dumps) == 1
        report = collect_hotspots(tmp_path / "prof", top=30)
        assert any(
            "run_simulation" in row["function"] for row in report["rows"]
        )

    def test_profiling_does_not_change_results(self, monkeypatch, tmp_path):
        config = scaled_config(duration=30.0)
        job = SimulationJob(config=config, method="sqlb", seed=1)
        executor = ExperimentExecutor(workers=1, store=None)
        [plain] = executor.run([job])
        monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path))
        profiling._switch.reset()
        [profiled] = executor.run([job])
        assert _fingerprint(profiled) == _fingerprint(plain)
        monkeypatch.delenv(PROFILE_DIR_ENV)
        profiling._switch.reset()


class TestEnvCleanupGuard:
    def test_fixture_restored_process_state(self):
        # Regression guard: the autouse fixture must leave the module
        # globals consistent for later test files in the same process.
        assert os.environ.get(PROFILE_DIR_ENV) is None
        assert active_profile_dir() is None
