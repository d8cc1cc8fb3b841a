"""Overhead guard: enabled telemetry stays within a few percent.

The instrumentation budget the ISSUE sets is <= 5 % on the standard
perf matrix.  This test times the matrix's quick cells (the CI-sized
subset) with telemetry off and on, compares best-of-N per mode, and
retries a few times before failing — wall-clock ratios on shared CI
boxes are noisy, and a transient scheduler hiccup must not read as an
instrumentation regression.

A timing guard depends on the host, so it stays out of the tier-1
suite (the file name does not match ``test_*.py``); the CI perf-smoke
job runs this directory's guards by path.  Tier-1 pins the same costs
deterministically, by counting clock reads and file opens
(``tests/simulation/test_observer_seam.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.perf import PERF_MATRIX
from repro.simulation.engine import run_simulation
from repro.telemetry.registry import telemetry_session

#: Allowed enabled/disabled ratio.  The ISSUE budget is 1.05; the extra
#: margin absorbs timer jitter at these sub-second cell durations
#: without masking a structural slowdown (an ungated hot-path hook
#: costs tens of percent, not five).
MAX_RATIO = 1.08

ROUNDS = 3
REPEATS = 3


def _best(config, method, enabled) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        if enabled:
            with telemetry_session():
                started = time.perf_counter()
                run_simulation(config, method, seed=1)
                elapsed = time.perf_counter() - started
        else:
            started = time.perf_counter()
            run_simulation(config, method, seed=1)
            elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best


@pytest.mark.parametrize(
    "cell", [cell for cell in PERF_MATRIX if cell.quick],
    ids=lambda cell: cell.name,
)
def test_enabled_overhead_within_budget(cell):
    config = cell.build()
    # Warm both paths (imports, caches) outside the timed region.
    run_simulation(config, "sqlb", seed=1)
    with telemetry_session():
        run_simulation(config, "sqlb", seed=1)

    ratios = []
    for _ in range(ROUNDS):
        disabled = _best(config, "sqlb", enabled=False)
        enabled = _best(config, "sqlb", enabled=True)
        ratio = enabled / disabled
        ratios.append(ratio)
        if ratio <= MAX_RATIO:
            return
    raise AssertionError(
        f"{cell.name}: telemetry overhead exceeded {MAX_RATIO:.2f}x in "
        f"every round (ratios: {[f'{r:.3f}' for r in ratios]})"
    )
