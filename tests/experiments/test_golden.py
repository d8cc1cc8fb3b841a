"""Golden determinism tests.

Small-config end-of-run scalars are frozen here for two methods; any
drift in the engine's numerics (an RNG stream reordering, a changed
arithmetic order, a serialization bug) trips these before it can
silently invalidate cached results or cross-method comparisons.  The
same scalars are asserted bit-stable across the serial path, the
process-pool path, and a store round-trip.

If a change *intentionally* alters simulation numerics, update the
goldens and bump ``repro.simulation.engine.ENGINE_VERSION`` in the same
commit so stale store entries are invalidated too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.executor import ExperimentExecutor, SimulationJob
from repro.experiments.store import ResultStore
from repro.simulation.config import (
    DepartureRules,
    WorkloadSpec,
    paper_config,
    tiny_config,
)
from repro.simulation.engine import MediatorSimulation, run_simulation

#: (queries_issued, queries_served, response_time_post_warmup) of
#: tiny_config(duration=60.0) at seed 5 — captive, so zero departures.
CAPTIVE_GOLDEN = {
    "sqlb": (227, 227, 7.9889393978853285),
    "capacity": (227, 227, 3.0838577204174573),
}

#: (queries_issued, provider_departures, consumer_departures) of the
#: autonomous 100 %-workload run below at seed 5.
AUTONOMOUS_GOLDEN = {
    "sqlb": (663, 1, 2),
    "capacity": (201, 16, 8),
}

#: SHA-256 over the *entire* sampled output (time axis + every series,
#: raw float64 bytes) of the two golden configs at seed 5, recorded
#: before the engine's hot-path overhaul (PR 3).  Unlike the scalar
#: goldens above, these trip on a single-ulp drift in any sample of any
#: series — the strongest practical bit-identity check.
SERIES_SHA256 = {
    ("captive", "sqlb"):
        "ed01bf370eb314688efd21fdc17658306e149634f040aadce6794acd972352f4",
    ("captive", "capacity"):
        "0a929708a4c0071b6bbe8ebe6f0631499283b3ecf9f0fad1d97d8644163db54e",
    ("captive", "mariposa"):
        "88ba7711aa4fe6c41a7f124966565f96128657c383353a6a30edc4ac0068ddbf",
    ("autonomous", "sqlb"):
        "668b18ba87b72be7179d34fce2d2fefaf9507e7deeaa07ca937356f1e3ccea6b",
    ("autonomous", "capacity"):
        "7300c47e0e4ea68b144b11ca34861ebe9908fa8a77a4f3f8e4732faaa1c1c0a5",
    ("autonomous", "mariposa"):
        "4231cc7a13e8069e0ef53365c36fa63451f76f0cdc81aaf96eb8593f34eaf798",
}


#: The same SHA-256 at paper scale: 200 consumers x 400 providers,
#: captive, fixed 80 % load, 10 s horizon sampled 5 times, seed 1 (the
#: benchmark's ``engine_paper`` runs, whose pins these equal).  The
#: 16-wide goldens above never exercise 400-wide lockstep ring rows:
#: the window fill, the full-window pushes and the warm-start slot
#: evicting every provider at once.
PAPER_SERIES_SHA256 = {
    "sqlb": "221fa51015eb5b9b2451a6a64b2cbcfb7902f4cff3b26620bb491bd3319d4bbd",
    "capacity":
        "b9a209a9ce3c035378decddc94647275d15fbc00805e2f0507ace2f512cbad3f",
    "mariposa":
        "29179dc9dc52c376e750db31ba7388c1724c49fc3777ecaa745d4d344be1844b",
}


#: SHA-256 over the same three runs' end state: every ``final`` array
#: (sorted names, raw bytes), then ``queries_served`` and both
#: response-time means.  The series above are population means and
#: fairness values; these pin the per-row views they summarise.
PAPER_END_STATE_SHA256 = {
    "sqlb": "2706b683f24eae13e3aabbc9974b5175352b53528c0eeb58201896e90d53a496",
    "capacity":
        "960050f7b1c5b2d1dc44171e2839f9c3dc6143062cd2d8af6c30155e62b90b51",
    "mariposa":
        "1805faf47b442a203e7634b2c2b3a7f3a240a875fca29a1d3a4f54dd280116e6",
}


def _series_fingerprint(result) -> str:
    digest = hashlib.sha256()
    digest.update(result.times().tobytes())
    for name in sorted(result.collector.names):
        digest.update(name.encode())
        digest.update(result.series(name).tobytes())
    return digest.hexdigest()


def _end_state_fingerprint(result) -> str:
    digest = hashlib.sha256()
    for name in sorted(result.final):
        digest.update(name.encode())
        digest.update(result.final[name].tobytes())
    digest.update(np.array([result.queries_served], dtype=np.int64).tobytes())
    digest.update(
        np.array(
            [result.response_time_mean, result.response_time_post_warmup]
        ).tobytes()
    )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def paper_run():
    """The 400-wide runs, one per method, shared by the tests below.

    Returns a function of the method giving ``(simulation, result)``;
    each run happens once per module, on first use.
    """
    config = paper_config(
        duration=10.0,
        sample_interval=2.0,
        warmup_time=2.5,
        workload=WorkloadSpec.fixed(0.8),
    )
    runs = {}

    def run(method):
        if method not in runs:
            simulation = MediatorSimulation(config, method, seed=1)
            runs[method] = (simulation, simulation.run())
        return runs[method]

    return run


def captive_config():
    return tiny_config(duration=60.0)


def autonomous_config():
    return tiny_config(
        duration=120.0, workload=WorkloadSpec.fixed(1.0)
    ).with_departures(DepartureRules.autonomous(True))


@pytest.mark.parametrize("method", sorted(CAPTIVE_GOLDEN))
def test_captive_scalars_match_golden(method):
    issued, served, response = CAPTIVE_GOLDEN[method]
    result = run_simulation(captive_config(), method, seed=5)
    assert result.queries_issued == issued
    assert result.queries_served == served
    assert result.response_time_post_warmup == response
    assert len(result.departures) == 0


@pytest.mark.parametrize("method", sorted(AUTONOMOUS_GOLDEN))
def test_autonomous_departure_counts_match_golden(method):
    issued, providers, consumers = AUTONOMOUS_GOLDEN[method]
    result = run_simulation(autonomous_config(), method, seed=5)
    assert result.queries_issued == issued
    assert (
        sum(1 for d in result.departures if d.kind == "provider") == providers
    )
    assert (
        sum(1 for d in result.departures if d.kind == "consumer") == consumers
    )


@pytest.mark.parametrize(
    ("label", "method"), sorted(SERIES_SHA256)
)
def test_full_series_match_pre_overhaul_fingerprints(label, method):
    """Every sampled series is bit-identical to the pre-refactor engine."""
    config = captive_config() if label == "captive" else autonomous_config()
    result = run_simulation(config, method, seed=5)
    assert _series_fingerprint(result) == SERIES_SHA256[(label, method)]


@pytest.mark.parametrize("method", sorted(PAPER_SERIES_SHA256))
def test_paper_scale_series_match_fingerprints(method, paper_run):
    """The 400-wide hot path is bit-identical to the frozen engine."""
    _, result = paper_run(method)
    assert len(result.times()) == 5
    assert _series_fingerprint(result) == PAPER_SERIES_SHA256[method]


@pytest.mark.parametrize("method", sorted(PAPER_END_STATE_SHA256))
def test_paper_scale_end_state_matches_fingerprints(method, paper_run):
    """Every per-row view the run ends with is bit-identical too."""
    _, result = paper_run(method)
    assert _end_state_fingerprint(result) == PAPER_END_STATE_SHA256[method]


@pytest.mark.parametrize("method", sorted(PAPER_SERIES_SHA256))
def test_paper_scale_runs_stay_on_the_lockstep_path(method, paper_run):
    """Every proposal takes the uniform all-rows push, every query the
    scalar consumer push: a change that knocks the 400-wide rows off
    the lockstep path keeps the outputs but not the speed."""
    simulation, result = paper_run(method)
    served = result.queries_served
    # One warm-start push, then one proposal per served query.
    assert simulation.providers.push_stats() == {
        "uniform": served + 1, "scattered": 0, "scalar": 0,
    }
    assert simulation.consumers.push_stats() == {
        "uniform": 0, "scattered": 0, "scalar": served,
    }


@pytest.mark.parametrize("method", sorted(CAPTIVE_GOLDEN))
def test_serial_parallel_and_store_agree_bitwise(method, tmp_path):
    """The three execution paths must be indistinguishable."""
    config = captive_config()
    job = [SimulationJob(config, method, 5)]

    serial = ExperimentExecutor(workers=1).run(job)[0]
    # Two jobs so the pool path is actually exercised for this method.
    parallel = ExperimentExecutor(workers=2).run(
        [SimulationJob(config, method, 5), SimulationJob(config, method, 6)]
    )[0]
    store = ResultStore(tmp_path)
    store.put(serial)
    loaded = store.get(config, method, 5)

    for result in (serial, parallel, loaded):
        golden = CAPTIVE_GOLDEN[method]
        assert result.queries_issued == golden[0]
        assert result.queries_served == golden[1]
        assert result.response_time_post_warmup == golden[2]

    for other in (parallel, loaded):
        np.testing.assert_array_equal(serial.times(), other.times())
        for name in serial.collector.names:
            assert np.array_equal(
                serial.series(name), other.series(name), equal_nan=True
            ), name
