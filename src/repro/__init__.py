"""SQLB — Satisfaction-based Query Load Balancing.

A from-scratch Python reproduction of *"SQLB: A Query Allocation
Framework for Autonomous Consumers and Providers"* (Quiané-Ruiz,
Lamarre, Valduriez; VLDB 2007): the satisfaction model and metrics
(Sections 3-4), the SQLB framework (Section 5), the Capacity-based and
Mariposa-like baselines (Section 6.2), and the mediator simulation the
evaluation runs on.

Quick start::

    from repro import scaled_config, run_simulation

    result = run_simulation(scaled_config(), "sqlb", seed=42)
    print(result.series("provider_intention_satisfaction_mean")[-1])
"""

from repro.allocation import (
    PAPER_METHODS,
    AllocationMethod,
    AllocationRequest,
    CapacityBasedMethod,
    MariposaMethod,
    SQLBMethod,
    build_method,
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
    PAPER_SEEDS,
    run_repeated,
)
from repro.analysis import (
    FIGURE_CATALOG,
    available_metrics,
    cell_band,
    cells_from_store,
    compare_stores,
    get_metric,
    render_catalog,
)
from repro.experiments.store import ResultStore, cache_key
from repro.sweeps import (
    Scenario,
    SweepJob,
    SweepRunner,
    SweepSpec,
    available_scenarios,
    format_sweep_table,
    merge_stores,
    scenario_catalog,
    sweep_summary,
)
from repro.core import (
    SQLBAllocation,
    allocate_query,
    consumer_intention,
    omega,
    provider_intention,
    provider_score,
)
from repro.model import (
    ConsumerProfile,
    ProviderProfile,
    fairness,
    mean,
    min_max_ratio,
)
from repro.simulation import (
    DepartureRules,
    MediatorSimulation,
    SimulationConfig,
    SimulationResult,
    WorkloadSpec,
    paper_config,
    run_simulation,
    scaled_config,
    tiny_config,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SEEDS",
    "FIGURE_CATALOG",
    "PAPER_METHODS",
    "PAPER_SEEDS",
    "AllocationMethod",
    "AllocationRequest",
    "CapacityBasedMethod",
    "ConsumerProfile",
    "DepartureRules",
    "ExperimentExecutor",
    "MariposaMethod",
    "MediatorSimulation",
    "ProviderProfile",
    "ResultStore",
    "SQLBAllocation",
    "SQLBMethod",
    "Scenario",
    "SimulationConfig",
    "SimulationJob",
    "SimulationResult",
    "SweepJob",
    "SweepRunner",
    "SweepSpec",
    "WorkloadSpec",
    "allocate_query",
    "available_metrics",
    "available_scenarios",
    "build_method",
    "cache_key",
    "cell_band",
    "cells_from_store",
    "compare_stores",
    "configure_default_executor",
    "consumer_intention",
    "fairness",
    "format_sweep_table",
    "get_default_executor",
    "get_metric",
    "mean",
    "merge_stores",
    "min_max_ratio",
    "omega",
    "paper_config",
    "provider_intention",
    "provider_score",
    "render_catalog",
    "run_repeated",
    "run_simulation",
    "scaled_config",
    "scenario_catalog",
    "set_default_executor",
    "sweep_summary",
    "tiny_config",
    "__version__",
]
