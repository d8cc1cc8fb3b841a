"""Micro-benchmark — end-to-end mediator throughput.

Documents how many queries per second the full pipeline (intentions →
scoring → allocation → queues → satisfaction model) sustains on the
engine's *standard perf matrix* (captive + autonomous, small +
paper-scale populations; see ``repro.experiments.perf``), which bounds
what horizon/population the experiments can use.  The repository
benchmark (``perfbench/run.py``) is what measures and gates the
engine's throughput; this bench only prints the matrix's timings.
"""

from __future__ import annotations

import pytest

from repro.experiments.perf import PERF_MATRIX, PERF_METHODS
from repro.simulation.engine import run_simulation

_CELLS = {cell.name: cell for cell in PERF_MATRIX}


@pytest.mark.parametrize("method", PERF_METHODS)
@pytest.mark.parametrize("cell", sorted(_CELLS))
def test_engine_throughput(benchmark, cell, method):
    config = _CELLS[cell].build()
    result = benchmark.pedantic(
        run_simulation,
        args=(config, method),
        kwargs={"seed": 1},
        rounds=1,
        iterations=1,
    )
    assert result.queries_served > 1000
