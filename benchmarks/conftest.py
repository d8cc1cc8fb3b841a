"""Shared configuration for the benchmark suite.

Every bench regenerates one table or figure of the paper (see DESIGN.md
§3): it runs the figure's grid through
:func:`repro.experiments.paper.run_figure` (or, for the ablations and
extensions, :func:`repro.experiments.harness.run_repeated`), prints the
same rows/series the paper reports, writes them under
``benchmarks/output/``, and asserts the shape-level claims from Section
6.3.  Runs are shared through the session's result store, so benches
drawn from the same runs simulate them once; with ``--no-cache`` each
bench simulates its own grid.

Scale note: benches run the *scaled* environment (DESIGN.md §2.4) with a
single repetition seed so the full suite finishes in minutes; pass more
seeds or the paper configuration to ``run_figure`` for paper-strength
averaging.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.executor import (
    configure_default_executor,
    set_default_executor,
)
from repro.simulation.config import scaled_config

#: One repetition keeps the suite fast; the harness supports any number.
BENCH_SEEDS = (11,)

OUTPUT_DIR = Path(__file__).parent / "output"

#: Where the benches persist completed simulations between sessions.
RESULT_STORE_DIR = OUTPUT_DIR / ".result_store"

#: Where the session's executor is kept for the terminal summary.
_EXECUTOR = pytest.StashKey()


@pytest.fixture(scope="session", autouse=True)
def experiment_executor(request):
    """One disk-cached, pool-capable executor shared by every bench.

    All 20+ figure/table benches route their simulations through the
    default executor configured here: ``--workers N`` fans each
    experiment family's jobs out over a process pool (one pool per
    simulation batch; worker start-up is cheap next to the runs), and
    the persistent store under ``benchmarks/output/.result_store``
    means a re-run of the suite re-simulates nothing (pass
    ``--no-cache`` to force fresh runs, or ``--cache-dir`` to relocate
    the store).
    """
    raw_workers = request.config.getoption("--workers", default=1)
    try:
        workers = max(1, int(raw_workers or 1))
    except (TypeError, ValueError):
        # A colliding third-party --workers may carry non-integer
        # values (e.g. "auto"); fall back to serial rather than crash.
        workers = 1
    if request.config.getoption("--no-cache", default=False):
        cache_dir = None
    else:
        cache_dir = (
            request.config.getoption("--cache-dir", default=None)
            or RESULT_STORE_DIR
        )
    executor = configure_default_executor(workers=workers, cache_dir=cache_dir)
    request.config.stash[_EXECUTOR] = executor
    yield executor
    set_default_executor(None)


def pytest_terminal_summary(terminalreporter, config):
    """Report how many runs the session simulated (store hits excluded),
    so a warm re-run can be checked to have simulated none."""
    executor = config.stash.get(_EXECUTOR, None)
    if executor is not None:
        terminalreporter.write_line(
            f"bench executor: simulations_run={executor.simulations_run}"
        )


def bench_config():
    """The environment every bench runs (scaled, shorter horizon)."""
    return scaled_config(duration=600.0)


def ramp_config():
    """The Figure 4(a)-(h) ramp runs a longer horizon so the 30→100 %
    sweep is visible in the series."""
    return scaled_config(duration=1200.0)


@pytest.fixture
def report_writer():
    """Write one bench's report under benchmarks/output/ and echo it."""

    def write(name: str, text: str) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[report written to {path}]")

    return write
