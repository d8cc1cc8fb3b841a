"""The CI throughput gate's decision, without running the benchmark.

``tests/perf_smoke/throughput_gate.py`` is a script CI runs by path; it
is loaded here the same way, and only its pure decision is exercised.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).parent / "perf_smoke" / "throughput_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("throughput_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = {
    "live_qps": {"name": "live_qps", "better": "higher", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def run(live_qps=10000.0, setup_s=0.2, correct=True, exit=0):
    return {
        "correct": correct,
        "exit": exit,
        "metrics": {
            "live_qps": {"value": live_qps, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


PARENT = [run(9000.0), run(10000.0, 0.21), run(11000.0, 0.19)]


def test_same_runs_pass(gate):
    assert gate.decide(PARENT, PARENT, METRICS) == []


def test_higher_is_better_within_the_bound_passes(gate):
    change = [run(7600.0), run(7550.0), run(12000.0)]  # median -24 %
    assert gate.decide(PARENT, change, METRICS) == []


def test_higher_is_better_past_the_bound_fails(gate):
    change = [run(7400.0), run(7000.0), run(12000.0)]  # median -26 %
    [problem] = gate.decide(PARENT, change, METRICS)
    assert problem.startswith("live_qps: change median 7400")
    assert "26.0% worse" in problem


def test_a_faster_change_passes(gate):
    change = [run(20000.0, 0.1)] * 3
    assert gate.decide(PARENT, change, METRICS) == []


def test_lower_is_better_within_the_bound_passes(gate):
    change = [run(setup_s=0.24)] * 3  # +20 %
    assert gate.decide(PARENT, change, METRICS) == []


def test_lower_is_better_past_the_bound_fails(gate):
    change = [run(setup_s=0.26)] * 3  # +30 %
    [problem] = gate.decide(PARENT, change, METRICS)
    assert problem.startswith("setup_s:")
    assert "30.0% worse" in problem


@pytest.mark.parametrize("side", ["parent", "change"])
def test_an_incorrect_run_fails(gate, side):
    runs = {"parent": list(PARENT), "change": list(PARENT)}
    runs[side][1] = run(correct=False)
    [problem] = gate.decide(runs["parent"], runs["change"], METRICS)
    assert problem == f"{side} run 2 failed (exit 0, correct False)"


def test_a_run_that_exits_non_zero_fails(gate):
    crashed = {"exit": 1}  # no result line at all
    problems = gate.decide(PARENT, [*PARENT[:2], crashed], METRICS)
    assert problems == ["change run 3 failed (exit 1, correct None)"]


def test_a_missing_metric_fails(gate):
    change = [run(), run(), run()]
    del change[2]["metrics"]["live_qps"]
    assert gate.decide(PARENT, change, METRICS) == [
        "live_qps: missing from a run's metrics"
    ]


def test_no_runs_fail(gate):
    assert gate.decide(PARENT, [], METRICS) == ["change: no runs"]


def test_bounds_come_from_the_benchmark_declaration(gate):
    gated = gate.gated_metrics()
    assert set(gated) == {"live_qps", "replay_qps"}
    assert all(entry["better"] == "higher" for entry in gated.values())
    assert all(0 < entry["bound"] <= 0.25 for entry in gated.values())
