"""Zero-byte telemetry husks are gc/fsck litter, never torn files."""

from __future__ import annotations

import os
import time

from repro.scheduler.fsck import fsck_queue
from repro.scheduler.queue import WorkQueue
from repro.sweeps.spec import SweepSpec


def spec() -> SweepSpec:
    return SweepSpec(
        name="husk-unit",
        scenarios=("captive_fixed_80",),
        methods=("sqlb",),
        seeds=(1,),
        scale="tiny",
    )


def make_husk(directory, age_s: float):
    path = directory / "events-host-4242-0.jsonl"
    path.touch()
    old = time.time() - age_s
    os.utime(path, (old, old))
    return path


class TestGc:
    def test_aged_husk_is_pruned(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        telemetry_dir = tmp_path / "events"
        telemetry_dir.mkdir()
        husk = make_husk(telemetry_dir, age_s=10_000.0)
        report = queue.gc(
            prune=True,
            temp_age=3600.0,
            extra_roots=(telemetry_dir,),
        )
        assert husk in report.temp_files
        assert not husk.exists()

    def test_young_husk_left_alone(self, tmp_path):
        # Every footprint shares one age gate: a young zero-byte file
        # is never litter.
        queue = WorkQueue.init(tmp_path / "q", spec())
        telemetry_dir = tmp_path / "events"
        telemetry_dir.mkdir()
        husk = make_husk(telemetry_dir, age_s=1.0)
        report = queue.gc(
            prune=True, temp_age=3600.0, extra_roots=(telemetry_dir,)
        )
        assert husk not in report.temp_files
        assert husk.exists()

    def test_aged_nonempty_events_file_is_data_not_litter(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        telemetry_dir = tmp_path / "events"
        telemetry_dir.mkdir()
        data = telemetry_dir / "events-host-4242-0.jsonl"
        data.write_text('{"v": 1}\n')
        old = time.time() - 10_000.0
        os.utime(data, (old, old))
        report = queue.gc(
            prune=True, temp_age=3600.0, extra_roots=(telemetry_dir,)
        )
        assert data not in report.temp_files
        assert data.exists()


class TestFsck:
    def test_aged_husk_in_queue_root_is_a_stale_temp(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        husk = make_husk(queue.root, age_s=10_000.0)
        report = fsck_queue(queue, repair=True)
        assert any(
            v.kind == "stale-temp" and v.subject == str(husk)
            for v in report.violations
        )
        assert not husk.exists()

    def test_young_husk_passes_fsck(self, tmp_path):
        queue = WorkQueue.init(tmp_path / "q", spec())
        husk = make_husk(queue.root, age_s=1.0)
        report = fsck_queue(queue, repair=True)
        assert report.clean
        assert husk.exists()
