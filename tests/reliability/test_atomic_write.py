"""The one atomic writer, and every writer in the repo that uses it.

``atomic_write`` carries the write contract: a dot-prefixed temp
beside the target, one ``os.replace`` (or ``os.link`` when exclusive)
as the commit, the three ``store.write.*`` failpoint sites, and an
fsync of the temp file and of the parent directory under durable
writes.  The parametrized cases below check that each producer of a
file — telemetry, traces, audit shards, profiles, figures, sweep
manifests, queue records — inherits that contract rather than keeping
its own copy of the idiom.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis import figures
from repro.analysis.figures import render_catalog
from repro.audit.recorder import audit_session
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.store import ResultStore
from repro.reliability import (
    FailpointError,
    durable_writes_session,
    failpoints_session,
)
from repro.reliability import durability
from repro.reliability.durability import atomic_write
from repro.scheduler.queue import WorkQueue
from repro.simulation.config import tiny_config
from repro.simulation.engine import run_simulation
from repro.simulation.trace import record_trace
from repro.sweeps.runner import SweepRunner, write_manifest
from repro.sweeps.spec import SweepSpec
from repro.telemetry.profiling import profile_job
from repro.telemetry.registry import Telemetry

SPEC = SweepSpec(
    name="writers-unit",
    scenarios=("captive_fixed_80",),
    methods=("sqlb",),
    seeds=(1,),
    scale="tiny",
)


def entries(directory: Path) -> set[str]:
    """Every name directly under ``directory`` (temps included)."""
    return set(os.listdir(directory)) if directory.is_dir() else set()


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "record.json"
        assert atomic_write(target, b"first") is True
        assert atomic_write(target, b"second") is True
        assert target.read_bytes() == b"second"
        assert entries(tmp_path) == {"record.json"}

    def test_exclusive_never_clobbers(self, tmp_path):
        target = tmp_path / "done.json"
        assert atomic_write(target, b"result", exclusive=True) is True
        assert atomic_write(target, b"verdict", exclusive=True) is False
        assert target.read_bytes() == b"result"
        assert entries(tmp_path) == {"done.json"}

    def test_failure_before_commit_leaves_nothing(self, tmp_path):
        target = tmp_path / "record.json"
        with failpoints_session("store.write.before_replace:raise:1"):
            with pytest.raises(FailpointError):
                atomic_write(target, b"payload", exclusive=True)
        assert entries(tmp_path) == set()

    def test_failure_after_commit_keeps_the_file(self, tmp_path):
        target = tmp_path / "record.json"
        with failpoints_session("store.write.after_replace:raise:1"):
            with pytest.raises(FailpointError):
                atomic_write(target, b"payload")
        assert entries(tmp_path) == {"record.json"}
        assert target.read_bytes() == b"payload"

    def test_temp_is_dot_prefixed_beside_the_target(
        self, tmp_path, monkeypatch
    ):
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(Path(src))
            return real_replace(src, dst)

        monkeypatch.setattr(durability.os, "replace", spy)
        atomic_write(tmp_path / "record.json", b"payload")
        [temp] = seen
        assert temp.parent == tmp_path
        assert temp.name.startswith(".record.json.")


# ---------------------------------------------------------------------
# every producer of a file goes through the writer
# ---------------------------------------------------------------------

#: A writer case: given a scratch directory, prepare the inputs and
#: return (write, out_dir) — ``write()`` produces the files, all of
#: them directly under ``out_dir``.
Prepare = Callable[[Path], tuple[Callable[[], object], Path]]


def telemetry_flush(tmp_path):
    telemetry = Telemetry(tmp_path / "telemetry")
    telemetry.count("writes.unit")
    return telemetry.flush, tmp_path / "telemetry"


def trace_record(tmp_path):
    out = tmp_path / "traces"
    out.mkdir()

    def write():
        config = tiny_config(duration=40.0)
        record_trace(config, "sqlb", 1, out / "t.json")

    return write, out


def audit_commit(tmp_path):
    config = tiny_config(duration=40.0)
    with audit_session(tmp_path / "audit") as audit:
        run_simulation(config, "sqlb", seed=1)
    return (
        lambda: audit.commit("ab" * 16, "sqlb", config),
        audit.audit_dir,
    )


def profile_dump(tmp_path):
    out = tmp_path / "profiles"

    def write():
        with profile_job(out):
            sum(range(100))

    return write, out


def figure_export(tmp_path):
    store = tmp_path / "store"
    executor = ExperimentExecutor(workers=1, store=ResultStore(store))
    SweepRunner(executor).run_shard(SPEC)
    out = tmp_path / "figures"

    def write():
        render_catalog(
            store, out, formats=("json",), only=("response_time",)
        )

    return write, out


def image_export(tmp_path):
    store = tmp_path / "store"
    executor = ExperimentExecutor(workers=1, store=ResultStore(store))
    SweepRunner(executor).run_shard(SPEC)
    out = tmp_path / "figures"

    def write():
        # matplotlib is optional: a stub renderer lets the image write
        # path run without it.
        with mock.patch.object(
            figures, "matplotlib_available", return_value=True
        ), mock.patch.object(
            figures, "_render_matplotlib", return_value=b"<svg/>"
        ):
            report = render_catalog(
                store, out, formats=("svg",), only=("response_time",)
            )
        assert [path.name for path in report.written] == [
            "response_time.svg"
        ]

    return write, out


def sweep_manifest(tmp_path):
    store = tmp_path / "store"

    def write():
        write_manifest(store, SPEC, "cafe", {"worker": "w1"}, "w1", [])

    return write, store / "manifests"


def queue_record(tmp_path):
    queue = WorkQueue.init(tmp_path / "queue", SPEC)
    queue.counters_dir.mkdir()
    return (
        lambda: queue.write_worker_counters("w1", {"jobs": 1}),
        queue.counters_dir,
    )


WRITERS: dict[str, Prepare] = {
    "telemetry-flush": telemetry_flush,
    "record-trace": trace_record,
    "audit-commit": audit_commit,
    "profile-dump": profile_dump,
    "figure-export": figure_export,
    "image-export": image_export,
    "sweep-manifest": sweep_manifest,
    "queue-record": queue_record,
}


@pytest.mark.parametrize("prepare", WRITERS.values(), ids=WRITERS.keys())
def test_durable_writes_fsync_each_file_and_its_directory(
    prepare, tmp_path, monkeypatch
):
    write, out_dir = prepare(tmp_path)
    calls = {"fsync_fd": 0, "fsync_dir": 0}

    def counting(name, real):
        def wrapper(target):
            calls[name] += 1
            return real(target)

        return wrapper

    for name in calls:
        monkeypatch.setattr(
            durability, name, counting(name, getattr(durability, name))
        )
    before = entries(out_dir)
    with durable_writes_session(True):
        write()
    written = entries(out_dir) - before
    assert written and not any(name.startswith(".") for name in written)
    assert calls == {"fsync_fd": len(written), "fsync_dir": len(written)}


@pytest.mark.parametrize("prepare", WRITERS.values(), ids=WRITERS.keys())
def test_torn_write_raises_and_never_creates_the_file(prepare, tmp_path):
    write, out_dir = prepare(tmp_path)
    before = entries(out_dir)
    with failpoints_session("store.write.data:torn:1"):
        with pytest.raises(OSError, match="torn write"):
            write()
    # Neither the final file nor the half-written temp is left behind.
    assert entries(out_dir) == before
