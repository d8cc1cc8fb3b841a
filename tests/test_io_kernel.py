"""The I/O kernel: one per-process switch, one crash-litter rule, and
the import direction that lets telemetry share the reliability writer.

Every opt-in observability or reliability switch (telemetry, decision
audit, failpoints, durable writes, profiling) is a
:class:`repro._io.ProcessLocal`; one parametrized activation test pins
the rule they all follow, including a real ``os.fork``.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
import time
from collections.abc import Callable
from contextlib import AbstractContextManager
from pathlib import Path

import pytest

import repro
from repro._io import ProcessLocal, crash_litter
from repro.audit import recorder
from repro.audit.recorder import AUDIT_DIR_ENV, audit_session, configure_audit
from repro.reliability import (
    DURABLE_WRITES_ENV,
    FAILPOINTS_ENV,
    configure_durable_writes,
    configure_failpoints,
    durable_writes_enabled,
    durable_writes_session,
    failpoints,
    failpoints_session,
    get_failpoints,
)
from repro.reliability import durability
from repro.telemetry import profiling, registry
from repro.telemetry.profiling import PROFILE_DIR_ENV, active_profile_dir
from repro.telemetry.registry import (
    TELEMETRY_DIR_ENV,
    configure_telemetry,
    get_telemetry,
    telemetry_session,
)

SRC = Path(repro.__file__).parent


@dataclasses.dataclass(frozen=True)
class Switch:
    """One opt-in switch, seen through its public names."""

    switch: ProcessLocal
    env: str
    env_value: Callable[[Path], str]
    get: Callable[[], object]
    #: The explicit "off" that must beat an enabling environment.
    disable: Callable[[], object]
    #: A scoped "on" (the public session, or the switch's override).
    scoped: Callable[[Path], AbstractContextManager]

    def enabled(self) -> bool:
        value = self.get()
        return value is not None and value is not False


SPEC = "io.kernel.unit:raise:1"

SWITCHES = {
    "telemetry": Switch(
        registry._switch,
        TELEMETRY_DIR_ENV,
        str,
        get_telemetry,
        lambda: configure_telemetry(enabled=False),
        telemetry_session,
    ),
    "audit": Switch(
        recorder._switch,
        AUDIT_DIR_ENV,
        str,
        recorder.get_audit,
        lambda: configure_audit(None),
        audit_session,
    ),
    "failpoints": Switch(
        failpoints._switch,
        FAILPOINTS_ENV,
        lambda _: SPEC,
        get_failpoints,
        lambda: configure_failpoints(None),
        lambda _: failpoints_session(SPEC),
    ),
    "durable-writes": Switch(
        durability._switch,
        DURABLE_WRITES_ENV,
        lambda _: "1",
        durable_writes_enabled,
        lambda: configure_durable_writes(False),
        lambda _: durable_writes_session(True),
    ),
    "profiling": Switch(
        profiling._switch,
        PROFILE_DIR_ENV,
        str,
        active_profile_dir,
        lambda: profiling._switch.set(None),
        profiling._switch.override,
    ),
}


@pytest.fixture(params=SWITCHES.values(), ids=SWITCHES.keys())
def case(request, monkeypatch):
    switch = request.param
    monkeypatch.delenv(switch.env, raising=False)
    switch.switch.reset()
    yield switch
    switch.switch.reset()


class TestSwitchActivation:
    def test_unset_means_off(self, case):
        assert not case.enabled()

    def test_environment_enables(self, case, monkeypatch, tmp_path):
        monkeypatch.setenv(case.env, case.env_value(tmp_path))
        assert case.enabled()

    def test_configure_beats_environment(self, case, monkeypatch, tmp_path):
        monkeypatch.setenv(case.env, case.env_value(tmp_path))
        case.disable()
        assert not case.enabled()

    def test_session_restores_the_unresolved_state(
        self, case, monkeypatch, tmp_path
    ):
        with case.scoped(tmp_path):
            assert case.enabled()
        # Unresolved again: the next read consults the environment.
        monkeypatch.setenv(case.env, case.env_value(tmp_path))
        assert case.enabled()

    def test_forked_child_rereads_the_environment(
        self, case, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(case.env, case.env_value(tmp_path))
        case.disable()
        assert not case.enabled()
        pid = os.fork()
        if pid == 0:  # the child: report, and never return into pytest
            code = 2
            try:
                code = 0 if case.enabled() else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert not case.enabled()  # the parent keeps its own choice


class TestProcessLocal:
    def test_resolves_once_per_process(self):
        calls = []
        switch = ProcessLocal(lambda: calls.append(1) or len(calls))
        assert switch.get() == switch.get() == 1
        switch.reset()
        assert switch.get() == 2

    def test_override_nests_and_restores(self):
        switch = ProcessLocal(lambda: "env")
        assert switch.set("outer") == "outer"
        with switch.override("inner") as value:
            assert value == switch.get() == "inner"
        assert switch.get() == "outer"


# ---------------------------------------------------------------------
# the crash-litter rule
# ---------------------------------------------------------------------


def _file(path: Path, data: bytes, age_s: float) -> Path:
    path.write_bytes(data)
    old = time.time() - age_s
    os.utime(path, (old, old))
    return path


class TestCrashLitter:
    def test_declares_the_four_footprints(self, tmp_path):
        aged = 10_000.0
        litter = {
            _file(tmp_path / ".record.json.k2j3", b"partial", aged),
            _file(tmp_path / "audit-a-seed1-x.npz.tmp", b"partial", aged),
            _file(tmp_path / "events-host-1-0.jsonl", b"", aged),
            _file(tmp_path / "0123abcd.npz", b"no marker", aged),
        }
        # Records and committed data, at the same age, are not litter.
        for name, data in (
            ("events-host-2-0.jsonl", b"{}\n"),
            ("paired.npz", b"payload"),
            ("paired.json", b"{}"),
            ("job.json", b"{}"),
            ("ticket", b""),
        ):
            _file(tmp_path / name, data, aged)
        (tmp_path / ".hidden-dir").mkdir()
        found = crash_litter([tmp_path], time.time(), 3600.0)
        assert set(found) == litter
        assert found == sorted(found)

    def test_young_footprints_belong_to_live_writers(self, tmp_path):
        _file(tmp_path / ".record.json.k2j3", b"partial", 10.0)
        _file(tmp_path / "events-host-1-0.jsonl", b"", 10.0)
        assert crash_litter([tmp_path], time.time(), 3600.0) == []

    def test_scans_directories_in_order_and_skips_missing(self, tmp_path):
        first, second = tmp_path / "b", tmp_path / "a"
        first.mkdir()
        second.mkdir()
        one = _file(first / ".x.1", b"", 10_000.0)
        two = _file(second / ".y.2", b"", 10_000.0)
        found = crash_litter(
            [first, tmp_path / "missing", str(second)], time.time(), 3600.0
        )
        assert found == [one, two]


# ---------------------------------------------------------------------
# the import direction
# ---------------------------------------------------------------------


def _load_time_imports(path: Path) -> set[str]:
    """Modules a file imports when loaded (function bodies excluded)."""
    modules: set[str] = set()
    stack: list[ast.AST] = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            modules.add(node.module)
        else:
            stack.extend(ast.iter_child_nodes(node))
    return modules


def _stdlib(module: str) -> bool:
    top = module.partition(".")[0]
    return top == "__future__" or top in sys.stdlib_module_names


def _within(module: str, *packages: str) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


class TestImportDirection:
    def test_io_leaf_imports_only_the_stdlib(self):
        imports = _load_time_imports(SRC / "_io.py")
        assert imports and all(_stdlib(name) for name in imports)

    @pytest.mark.parametrize("package", ["reliability", "telemetry"])
    def test_leaf_packages_import_no_numpy_and_no_engine(self, package):
        offenders = {
            f"{path.name}: {name}"
            for path in sorted((SRC / package).glob("*.py"))
            for name in _load_time_imports(path)
            if not _stdlib(name)
            and not _within(
                name, "repro._io", "repro.reliability", "repro.telemetry"
            )
        }
        assert not offenders

    def test_reliability_does_not_import_telemetry_at_load_time(self):
        # Telemetry imports the writer from reliability; the reverse
        # edge stays a call-time lookup (retry_io's counters).
        offenders = {
            f"{path.name}: {name}"
            for path in sorted((SRC / "reliability").glob("*.py"))
            for name in _load_time_imports(path)
            if _within(name, "repro.telemetry")
        }
        assert not offenders

    @pytest.mark.parametrize(
        "module",
        ["repro.telemetry.events", "repro.reliability", "repro._io",
         "repro.audit"],
    )
    def test_imports_in_a_fresh_interpreter(self, module):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
