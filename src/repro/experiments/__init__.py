"""Experiment harness regenerating every table and figure of the paper.

See DESIGN.md §3 for the experiment index.  The benches in
``benchmarks/`` are thin wrappers over these functions.
"""

from repro.experiments.autonomy import (
    DepartureReasonTable,
    consumer_departure_curve,
    departure_reason_table,
    departure_response_times,
    provider_departure_curve,
)
from repro.experiments.captive import (
    DEFAULT_WORKLOADS,
    FIGURE4_SERIES,
    captive_ramp,
    captive_ramp_config,
    response_time_curve,
)
from repro.experiments.executor import (
    ExperimentExecutor,
    SimulationJob,
    configure_default_executor,
    get_default_executor,
    set_default_executor,
)
from repro.experiments.harness import (
    DEFAULT_SEEDS,
    MethodAverages,
    average_series,
    run_method_family,
    run_repeated,
)
from repro.experiments.perf import (
    PERF_MATRIX,
    PerfCell,
    compare_reports,
    format_report,
    run_perf,
)
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
    "DEFAULT_WORKLOADS",
    "DepartureReasonTable",
    "DepartureRiskReport",
    "ExperimentExecutor",
    "FIGURE4_SERIES",
    "MethodAverages",
    "PERF_MATRIX",
    "PerfCell",
    "ResultStore",
    "SimulationJob",
    "average_series",
    "cache_key",
    "captive_ramp",
    "captive_ramp_config",
    "compare_reports",
    "configure_default_executor",
    "consumer_departure_curve",
    "departure_reason_table",
    "departure_response_times",
    "format_curve_table",
    "format_reason_table",
    "format_report",
    "format_series_table",
    "format_surface",
    "get_default_executor",
    "predict_departure_risks",
    "provider_departure_curve",
    "response_time_curve",
    "run_method_family",
    "run_perf",
    "run_repeated",
    "set_default_executor",
]
