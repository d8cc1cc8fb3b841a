"""The process-local telemetry registry and its enable/disable plumbing.

One :class:`Telemetry` instance per process aggregates three metric
kinds — monotonic **counters**, last-value **gauges**, and streaming
**timers** (count/sum/min/max plus P² p50/p90/p99) — and collects the
span-scoped structured events defined in
:mod:`repro.telemetry.events`.  Producers (engine, executor, store,
queue, worker) reach it through :func:`get_telemetry`, which returns
``None`` when telemetry is disabled; every hook is guarded by that
``None`` check, so a disabled run pays one attribute load per hook
site and nothing else.

Invariants the rest of the repo relies on:

* **No-op when disabled** — ``get_telemetry()`` is ``None`` unless
  ``$REPRO_TELEMETRY_DIR`` is set or :func:`configure_telemetry` was
  called; no file is touched, no clock read on the hot path.
* **Never touches an RNG stream** — the registry observes wall/perf
  clocks only.  Enabling telemetry must leave every simulation output
  bit-identical (the golden tests assert this both ways).
* **One event schema** — everything flushed here round-trips through
  :func:`repro.telemetry.events.read_events`.

Process-pool children are handled explicitly: a forked child inherits
the parent's registry object, so :func:`get_telemetry` (a
:class:`repro._io.ProcessLocal` switch) re-resolves from the
environment in any process other than the one that resolved it — each
pool worker writes its own events file and never doubles the parent's.
"""

from __future__ import annotations

import itertools
import os
import socket
import time
from contextlib import contextmanager
from pathlib import Path

from repro._io import ProcessLocal
from repro.reliability.durability import atomic_write
from repro.telemetry.events import EVENT_SCHEMA_VERSION, encode_event
from repro.telemetry.tracing import current_trace_id

__all__ = [
    "TELEMETRY_DIR_ENV",
    "Telemetry",
    "TimerStats",
    "configure_telemetry",
    "get_telemetry",
    "telemetry_from_environment",
    "telemetry_session",
]

#: Setting this environment variable to a directory enables telemetry
#: process-wide (pool children included — they re-read it on first use)
#: and directs every process's events file there.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"

#: Quantiles every timer tracks.
_TIMER_QUANTILES = (0.5, 0.9, 0.99)

_instance_counter = itertools.count()


class TimerStats:
    """Streaming duration statistics: count/sum/min/max + P² quantiles."""

    __slots__ = ("count", "total", "min", "max", "_quantiles")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        from repro.telemetry.quantiles import P2Quantile

        self._quantiles = tuple(P2Quantile(q) for q in _TIMER_QUANTILES)

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        for quantile in self._quantiles:
            quantile.observe(seconds)

    def snapshot(self) -> dict:
        """JSON-ready statistics of everything observed so far."""
        payload = {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count if self.count else 0.0,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }
        for quantile in self._quantiles:
            payload[f"p{int(round(quantile.q * 100))}_s"] = quantile.value()
        return payload


class Telemetry:
    """One process's counters, gauges, timers, and span events.

    Parameters
    ----------
    events_dir:
        Directory the events file is flushed into (created on first
        flush).  ``None`` keeps the registry in-memory only — metrics
        and events accumulate and can be inspected programmatically
        (the perf harness's phase breakdown), but nothing hits disk.
    """

    def __init__(self, events_dir: Path | str | None = None) -> None:
        self.pid = os.getpid()
        self.events_dir = Path(events_dir) if events_dir is not None else None
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerStats] = {}
        self._events: list[dict] = []
        self._span_stack: list[int] = []
        self._next_span = itertools.count(1)
        token = next(_instance_counter)
        self._events_name = (
            f"events-{socket.gethostname()}-{self.pid}-{token}.jsonl"
        )

    # -- metrics ------------------------------------------------------

    def count(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Feed one duration into streaming timer ``name``."""
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = TimerStats()
        timer.observe(seconds)

    # -- spans and events ---------------------------------------------

    def span_open(self, kind: str, name: str) -> int:
        """Open a span; returns its id.  Close with :meth:`span_close`.

        Spans nest LIFO: an event or span opened while this one is the
        innermost records it as parent.
        """
        span_id = next(self._next_span)
        self._span_stack.append(span_id)
        return span_id

    def span_close(
        self,
        span_id: int,
        kind: str,
        name: str,
        duration_s: float,
        attrs: dict | None = None,
    ) -> None:
        """Close a span, appending its event (parent = enclosing span)."""
        stack = self._span_stack
        if stack and stack[-1] == span_id:
            stack.pop()
        self._append(kind, name, duration_s, attrs, span_id=span_id)

    @contextmanager
    def span(self, kind: str, name: str, attrs: dict | None = None):
        """Context manager over :meth:`span_open`/:meth:`span_close`."""
        span_id = self.span_open(kind, name)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            self.span_close(
                span_id, kind, name, time.perf_counter() - started, attrs
            )

    def event(
        self,
        kind: str,
        name: str,
        attrs: dict | None = None,
        duration_s: float = 0.0,
    ) -> None:
        """Append one instantaneous (or pre-timed) event."""
        self._append(kind, name, duration_s, attrs, span_id=None)

    def _append(
        self,
        kind: str,
        name: str,
        duration_s: float,
        attrs: dict | None,
        span_id: int | None,
    ) -> None:
        parent = self._span_stack[-1] if self._span_stack else None
        # Correlation is attrs-only: when a trace scope is active, every
        # event minted under it carries the fleet-wide join key without
        # any envelope (schema) change.  An explicit attrs["trace"] from
        # the producer wins over the ambient scope.
        attrs = dict(attrs) if attrs else {}
        trace = current_trace_id()
        if trace is not None:
            attrs.setdefault("trace", trace)
        event = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "name": name,
            "id": span_id if span_id is not None else next(self._next_span),
            "parent": parent,
            "pid": self.pid,
            "t_wall": time.time(),
            "dur_s": float(duration_s),
            "attrs": attrs,
        }
        self._events.append(event)

    @property
    def events(self) -> list[dict]:
        """The events collected so far (live list; treat as read-only)."""
        return self._events

    def phase_seconds(self) -> dict[str, float]:
        """Total seconds per engine phase across the collected events."""
        totals: dict[str, float] = {}
        for event in self._events:
            if event["kind"] == "phase":
                name = event["name"]
                totals[name] = totals.get(name, 0.0) + event["dur_s"]
        return totals

    # -- persistence --------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready registry state (counters, gauges, timer stats)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {
                name: timer.snapshot()
                for name, timer in sorted(self.timers.items())
            },
        }

    def flush(self) -> Path | None:
        """Atomically (re)write this process's events file.

        The file holds every event so far plus one trailing
        ``snapshot`` event with the current registry state, so readers
        always see a consistent prefix-complete view; repeated flushes
        replace the file wholesale (no append, no torn tails).
        Returns the path, or ``None`` in in-memory mode.
        """
        if self.events_dir is None:
            return None
        self.events_dir.mkdir(parents=True, exist_ok=True)
        path = self.events_dir / self._events_name
        snapshot_event = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": "snapshot",
            "name": "registry",
            "id": 0,
            "parent": None,
            "pid": self.pid,
            "t_wall": time.time(),
            "dur_s": 0.0,
            "attrs": self.snapshot(),
        }
        lines = [
            encode_event(event)
            for event in (*self._events, snapshot_event)
        ]
        atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
        return path


# ---------------------------------------------------------------------
# process-wide active registry
# ---------------------------------------------------------------------


def telemetry_from_environment() -> Telemetry | None:
    """A registry per ``$REPRO_TELEMETRY_DIR`` (unset/empty → ``None``)."""
    events_dir = os.environ.get(TELEMETRY_DIR_ENV, "").strip()
    return Telemetry(events_dir) if events_dir else None


_switch: ProcessLocal[Telemetry | None] = ProcessLocal(
    telemetry_from_environment
)


def get_telemetry() -> Telemetry | None:
    """The process's active registry, or ``None`` when disabled.

    Resolved lazily from the environment on first call; a forked pool
    child that inherited the parent's registry re-resolves so each
    process owns its events file and nothing is double-counted.
    """
    return _switch.get()


def configure_telemetry(
    events_dir: Path | str | None = None, enabled: bool = True
) -> Telemetry | None:
    """Install (or clear) the process-wide registry explicitly.

    ``enabled=False`` disables telemetry regardless of the
    environment; otherwise a fresh registry is installed, flushing to
    ``events_dir`` (``None`` = in-memory only).
    """
    return _switch.set(Telemetry(events_dir) if enabled else None)


def telemetry_session(events_dir: Path | str | None = None):
    """Scoped registry for tests and the perf harness.

    Installs a fresh registry, yields it, and restores whatever was
    active before — including the unresolved lazy state, so a session
    inside a disabled process leaves it disabled.
    """
    return _switch.override(Telemetry(events_dir))
