"""Experiment harness regenerating every table and figure of the paper.

See DESIGN.md §3 for the experiment index.  The paper's figures are
declared in :mod:`repro.experiments.paper`; the benches in
``benchmarks/`` are thin wrappers over its ``run_figure`` and the
harness's ``run_repeated``.
"""

from repro.experiments.executor import (
    ExperimentExecutor,
    SimulationJob,
    configure_default_executor,
    get_default_executor,
    set_default_executor,
)
from repro.experiments.harness import (
    DEFAULT_SEEDS,
    average_series,
    run_repeated,
)
from repro.experiments.perf import PERF_MATRIX, PerfCell
from repro.experiments.store import ResultStore, cache_key
from repro.experiments.prediction import (
    DepartureRiskReport,
    predict_departure_risks,
)
from repro.experiments.report import (
    format_curve_table,
    format_reason_table,
    format_series_table,
    format_surface,
)

__all__ = [
    "DEFAULT_SEEDS",
    "DepartureRiskReport",
    "ExperimentExecutor",
    "PERF_MATRIX",
    "PerfCell",
    "ResultStore",
    "SimulationJob",
    "average_series",
    "cache_key",
    "configure_default_executor",
    "format_curve_table",
    "format_reason_table",
    "format_series_table",
    "format_surface",
    "get_default_executor",
    "predict_departure_risks",
    "run_repeated",
    "set_default_executor",
]
