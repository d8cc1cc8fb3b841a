"""Declarative provider fault injection: outages and flapping.

Permanent churn (the paper's autonomous departures) removes capacity
forever; this module adds the *temporary* capacity losses real fleets
see — a rack outage that comes back, a provider that flaps in and out
of service — as a declarative :class:`FaultSpec` attached to
:class:`~repro.simulation.config.SimulationConfig`.

Two invariants keep faults composable with the rest of the engine:

* Every capacity change is routed through the provider pool's
  ``deactivate()`` / ``reactivate()`` methods, both of which bump the
  pool epoch, so the engine's per-class candidate caches (and every
  identity-keyed cache downstream of them) invalidate exactly as they
  do for permanent departures.
* The fault schedule is *compiled once* before the run from a dedicated
  RNG stream (requested only when a spec is configured), so a config
  with ``faults=None`` consumes zero extra RNG draws and is
  bit-identical to the pre-fault engine.

Timing semantics: event times are fractions of the run duration, and a
compiled event applies at the first engine event (arrival or sample) at
or after its scheduled time.  A downed provider keeps draining its
already-assigned queue backlog — the outage removes it from *new*
allocation only, matching the "provider stops accepting work" model.
Providers that departed permanently (autonomy) while down are never
resurrected by a recovery event.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro._checks import check_number

__all__ = [
    "FaultEvent",
    "FaultSpec",
    "FlapSpec",
    "OutageSpec",
    "compile_fault_events",
]


@dataclasses.dataclass(frozen=True)
class OutageSpec:
    """One scheduled outage: a provider fraction down for a window.

    ``start`` and ``end`` are fractions of the run duration; the
    affected providers (a random ``fraction`` of the pool, drawn from
    the fault RNG stream) go down at ``start * duration`` and recover
    at ``end * duration``.
    """

    fraction: float
    start: float
    end: float

    def __post_init__(self) -> None:
        check_number("OutageSpec", "fraction", self.fraction, gt=0, le=1)
        if not 0.0 <= self.start < self.end <= 1.0:
            raise ValueError(
                "outage window needs 0 <= start < end <= 1, got "
                f"[{self.start}, {self.end}]"
            )


@dataclasses.dataclass(frozen=True)
class FlapSpec:
    """Periodic down/up cycling of a provider fraction.

    Within ``[start, end]`` (fractions of the duration) the affected
    providers repeat a cycle of relative length ``period``: down for
    the first ``duty`` of each cycle, up for the rest.  Recovery is
    clamped to ``end`` so the flap never leaks capacity loss past its
    window.
    """

    fraction: float
    period: float
    duty: float = 0.5
    start: float = 0.0
    end: float = 1.0

    def __post_init__(self) -> None:
        check_number("FlapSpec", "fraction", self.fraction, gt=0, le=1)
        check_number("FlapSpec", "period", self.period, gt=0)
        check_number("FlapSpec", "duty", self.duty, gt=0, lt=1)
        if not 0.0 <= self.start < self.end <= 1.0:
            raise ValueError(
                "flap window needs 0 <= start < end <= 1, got "
                f"[{self.start}, {self.end}]"
            )


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """The full fault plan for one run: any mix of outages and flaps.

    An empty spec (``FaultSpec()``) compiles to zero events and — by
    the RNG discipline documented in the module docstring — still costs
    one extra stream request, so configs that want byte-identity with
    the baseline should use ``faults=None``, not an empty spec.
    """

    outages: tuple[OutageSpec, ...] = ()
    flaps: tuple[FlapSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "flaps", tuple(self.flaps))
        for outage in self.outages:
            if not isinstance(outage, OutageSpec):
                raise TypeError(f"outages must be OutageSpec, got {outage!r}")
        for flap in self.flaps:
            if not isinstance(flap, FlapSpec):
                raise TypeError(f"flaps must be FlapSpec, got {flap!r}")


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One compiled capacity change: providers go down or come up."""

    time: float
    action: str  # "down" | "up"
    providers: tuple[int, ...]


def _draw_targets(
    fraction: float, n_providers: int, rng: np.random.Generator
) -> tuple[int, ...]:
    size = max(1, round(fraction * n_providers))
    chosen = rng.choice(n_providers, size=size, replace=False)
    return tuple(sorted(int(p) for p in chosen))


def compile_fault_events(
    spec: FaultSpec,
    duration: float,
    n_providers: int,
    rng: np.random.Generator,
) -> tuple[FaultEvent, ...]:
    """Expand a spec into a time-sorted schedule of down/up events.

    Target providers are drawn independently per outage/flap, in spec
    order, from ``rng`` — the compilation consumes RNG deterministically
    so the schedule is a pure function of (spec, duration, pool size,
    stream seed).  The sort is stable: events sharing a timestamp apply
    in spec order.
    """
    events: list[FaultEvent] = []
    for outage in spec.outages:
        targets = _draw_targets(outage.fraction, n_providers, rng)
        events.append(
            FaultEvent(outage.start * duration, "down", targets)
        )
        events.append(FaultEvent(outage.end * duration, "up", targets))
    for flap in spec.flaps:
        targets = _draw_targets(flap.fraction, n_providers, rng)
        window_end = flap.end * duration
        period = flap.period * duration
        down_span = flap.duty * period
        time = flap.start * duration
        while time < window_end:
            events.append(FaultEvent(time, "down", targets))
            events.append(
                FaultEvent(min(time + down_span, window_end), "up", targets)
            )
            time += period
    events.sort(key=lambda event: event.time)
    return tuple(events)
