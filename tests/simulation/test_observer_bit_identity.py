"""Observers must never perturb simulation numerics.

Every engine observer — the telemetry phase timer, the decision audit,
the trace recorder, and all three at once — draws nothing from any RNG
stream and reorders no arithmetic: it only reads, after the fact.  So
an observed run is bit-identical to an unobserved one *and* to the
frozen pre-telemetry golden fingerprints, and audited store payloads
are byte-identical to unaudited ones.  A single extra RNG request
anywhere in the hot path would shift every subsequent draw and trip
these within a handful of samples.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack

import pytest

from repro.audit.recorder import audit_session
from repro.experiments.executor import ExperimentExecutor, SimulationJob
from repro.experiments.store import ResultStore
from repro.simulation.config import DepartureRules, WorkloadSpec, tiny_config
from repro.simulation.engine import run_simulation
from repro.simulation.trace import SKIPPED, TraceRecorder
from repro.telemetry.registry import telemetry_session

#: Frozen in tests/experiments/test_golden.py before telemetry (and
#: audit) existed; duplicated — not imported, test packages are
#: path-independent — so an accidental golden edit cannot silently
#: relax this file too.
PRE_TELEMETRY_SHA256 = {
    ("captive", "sqlb"):
        "ed01bf370eb314688efd21fdc17658306e149634f040aadce6794acd972352f4",
    ("autonomous", "sqlb"):
        "668b18ba87b72be7179d34fce2d2fefaf9507e7deeaa07ca937356f1e3ccea6b",
}

OBSERVERS = ("telemetry", "audit", "trace", "all")


def _fingerprint(result) -> str:
    digest = hashlib.sha256()
    digest.update(result.times().tobytes())
    for name in sorted(result.collector.names):
        digest.update(name.encode())
        digest.update(result.series(name).tobytes())
    return digest.hexdigest()


def _config(label):
    if label == "captive":
        return tiny_config(duration=60.0)
    return tiny_config(
        duration=120.0, workload=WorkloadSpec.fixed(1.0)
    ).with_departures(DepartureRules.autonomous(True))


def _observed_run(observer, config, method, tmp_path):
    """Run with ``observer`` attached and check that it genuinely ran."""
    every = observer == "all"
    recorder = TraceRecorder() if every or observer == "trace" else None
    with ExitStack() as stack:
        telemetry = audit = None
        if every or observer == "telemetry":
            telemetry = stack.enter_context(telemetry_session(tmp_path))
        if every or observer == "audit":
            audit = stack.enter_context(audit_session(tmp_path))
        result = run_simulation(
            config,
            method,
            seed=5,
            observers=() if recorder is None else (recorder,),
        )
        if telemetry is not None:
            assert telemetry.counters["engine.queries_issued"] == (
                result.queries_issued
            )
            assert any(
                event["kind"] == "phase" for event in telemetry.events
            )
        if audit is not None:
            # The run's buffer holds exactly one record per served query.
            manifest_path = audit.commit("f" * 16, method, config)
            assert manifest_path is not None
            manifest = json.loads(manifest_path.read_text())
            assert manifest["decisions"] == result.queries_served
    if recorder is not None:
        issued = sum(klass != SKIPPED for klass in recorder.klasses)
        assert issued == result.queries_issued
    return result


@pytest.mark.parametrize("label", ["captive", "autonomous"])
@pytest.mark.parametrize("method", ["sqlb", "capacity"])
@pytest.mark.parametrize("observer", OBSERVERS)
def test_enabled_and_disabled_runs_are_bit_identical(
    observer, method, label, tmp_path
):
    config = _config(label)
    disabled = run_simulation(config, method, seed=5)
    enabled = _observed_run(observer, config, method, tmp_path)
    assert _fingerprint(enabled) == _fingerprint(disabled)


@pytest.mark.parametrize(
    ("label", "method"), sorted(PRE_TELEMETRY_SHA256)
)
@pytest.mark.parametrize("observer", OBSERVERS)
def test_observed_run_matches_pre_telemetry_goldens(
    observer, label, method, tmp_path
):
    result = _observed_run(observer, _config(label), method, tmp_path)
    assert _fingerprint(result) == PRE_TELEMETRY_SHA256[(label, method)]


def test_audited_store_payloads_are_byte_identical(tmp_path):
    """The persisted result halves must not know audit ever ran."""
    config = tiny_config(duration=60.0)
    job = SimulationJob(config, "sqlb", 3)

    plain_store = ResultStore(tmp_path / "plain")
    ExperimentExecutor(store=plain_store).run([job])

    audited_store = ResultStore(tmp_path / "audited")
    with audit_session(tmp_path / "shards"):
        ExperimentExecutor(store=audited_store).run([job])

    plain = sorted(p for p in (tmp_path / "plain").glob("*.npz"))
    audited = sorted(p for p in (tmp_path / "audited").glob("*.npz"))
    assert [p.name for p in plain] == [p.name for p in audited]
    assert plain, "store persisted nothing"
    for left, right in zip(plain, audited):
        assert left.read_bytes() == right.read_bytes(), left.name
    # And the audit shard itself landed where configured, not in the
    # store (store verify pairs *.npz/*.json by stem at its top level).
    assert list((tmp_path / "shards").glob("audit-*.json"))
    assert not list((tmp_path / "audited").glob("audit-*"))
