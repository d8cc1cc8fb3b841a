"""Overhead guard: enabled auditing stays within its budget.

Unlike telemetry (counter bumps), the recorder does real per-query
work — a score recompute and a top-K lexsort — so its budget is wider:
an audited run may cost up to 2x an unaudited one on the quick perf
cells.  What this guard actually protects against is the recorder
leaking *out* of its gate: an ungated hook, an accidental flush in the
hot loop, or per-query disk I/O all cost well beyond 2x.  Same
best-of-N + retry structure as the telemetry guard — wall-clock ratios
on shared CI boxes are noisy.

A timing guard depends on the host, so it stays out of the tier-1
suite (the file name does not match ``test_*.py``); the CI perf-smoke
job runs this directory's guards by path.  Tier-1 pins the same costs
deterministically, by counting clock reads and file opens
(``tests/simulation/test_observer_seam.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.audit.recorder import audit_session
from repro.experiments.perf import PERF_MATRIX
from repro.simulation.engine import run_simulation

#: Allowed enabled/disabled ratio (see module docstring).
MAX_RATIO = 2.0

ROUNDS = 3
REPEATS = 3


def _best(config, method, audit_dir) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        if audit_dir is not None:
            with audit_session(audit_dir):
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
def test_audited_overhead_within_budget(cell, tmp_path):
    config = cell.build()
    # Warm both paths (imports, caches) outside the timed region.
    run_simulation(config, "sqlb", seed=1)
    with audit_session(tmp_path):
        run_simulation(config, "sqlb", seed=1)

    ratios = []
    for _ in range(ROUNDS):
        disabled = _best(config, "sqlb", audit_dir=None)
        enabled = _best(config, "sqlb", audit_dir=tmp_path)
        ratio = enabled / disabled
        ratios.append(ratio)
        if ratio <= MAX_RATIO:
            return
    raise AssertionError(
        f"{cell.name}: audit overhead exceeded {MAX_RATIO:.2f}x in "
        f"every round (ratios: {[f'{r:.3f}' for r in ratios]})"
    )
