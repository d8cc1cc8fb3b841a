"""Unified telemetry: counters, streaming timers, and span events.

Stdlib-only by design (the engine's hot path imports this package), and
strictly opt-in: with no ``$REPRO_TELEMETRY_DIR`` and no
:func:`configure_telemetry` call, :func:`get_telemetry` returns ``None``
and every instrumentation site short-circuits — a disabled run is
bit-identical to the uninstrumented seed and never touches an RNG.

Fleet-wide correlation rides on top: trace ids
(:mod:`repro.telemetry.tracing`) join every process's events, the
merge/timeline/bundle read side (:mod:`repro.telemetry.merge`,
:mod:`~repro.telemetry.timeline`, :mod:`~repro.telemetry.bundle`)
reconstructs a drain from them, and :mod:`repro.telemetry.profiling`
adds opt-in per-job cProfile capture — all equally no-ops when off.
"""

from repro.telemetry.bundle import render_bundle, write_bundle
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    TelemetryReadError,
    encode_event,
    read_events,
    read_events_dir,
    verify_event,
)
from repro.telemetry.merge import (
    MERGED_EVENTS_NAME,
    load_stream,
    merge_events,
)
from repro.telemetry.profiling import (
    PROFILE_DIR_ENV,
    active_profile_dir,
    collect_hotspots,
    format_hotspots,
    profile_job,
)
from repro.telemetry.quantiles import P2Quantile
from repro.telemetry.registry import (
    TELEMETRY_DIR_ENV,
    Telemetry,
    TimerStats,
    configure_telemetry,
    get_telemetry,
    telemetry_from_environment,
    telemetry_session,
)
from repro.telemetry.report import (
    aggregate_events,
    format_telemetry_report,
    telemetry_report,
)
from repro.telemetry.timeline import (
    drain_timeline,
    format_timeline,
    timeline_from_path,
)
from repro.telemetry.tracing import (
    current_trace_id,
    mint_trace_id,
    trace_scope,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "MERGED_EVENTS_NAME",
    "P2Quantile",
    "PROFILE_DIR_ENV",
    "TELEMETRY_DIR_ENV",
    "Telemetry",
    "TelemetryReadError",
    "TimerStats",
    "active_profile_dir",
    "aggregate_events",
    "collect_hotspots",
    "configure_telemetry",
    "current_trace_id",
    "drain_timeline",
    "encode_event",
    "format_hotspots",
    "format_telemetry_report",
    "format_timeline",
    "get_telemetry",
    "load_stream",
    "merge_events",
    "mint_trace_id",
    "profile_job",
    "read_events",
    "read_events_dir",
    "render_bundle",
    "telemetry_from_environment",
    "telemetry_report",
    "telemetry_session",
    "timeline_from_path",
    "trace_scope",
    "verify_event",
    "write_bundle",
]
