"""Trace record/replay: the arrival stream as a portable artifact.

Recording serialises the *arrival stream* of one run — every arrival
time, the drawn consumer, and the drawn query class, in order —
together with enough environment identity (populations, horizon, query
costs, the recorded workload spec) to refuse replay against an
incompatible config.  The recorder is a plain engine observer: its
``on_arrival`` hook sees every arrival.  Replaying makes that exact
stream the arrival source of the engine's one loop, in place of the
Poisson arrival process and the per-query consumer/class draws.

Arrivals whose drawn consumer had already departed issue no query; they
are still recorded (with query class :data:`SKIPPED`, ``-1``) because
the engine's sample and departure-check ladders advance at *every*
arrival, issued or not, and byte-identical replay must trigger those
ladders at the same instants the recording run did.

Why this matters: two independent runs of different allocation methods
differ both because the methods differ *and* because their arrival
processes are independent samples.  Replaying one trace under every
method removes the second source entirely — the paired comparison sees
literally the same queries — which is what makes small cross-method
deltas in ``analyze compare`` meaningful.

The RNG-discipline contract (also in ROADMAP.md):

* Replay bypasses the ``workload`` and ``queries`` streams *wholesale*;
  it never draws from them, so there is no partial-consumption state to
  keep in sync.  The ``environment``, ``provider_preferences``, and
  ``method`` streams are untouched — a replay under the recording
  method and seed therefore reproduces the original run byte-for-byte
  (asserted in tests and the CI trace-smoke job).
* A trace ships as an explicit ``kind="trace"`` workload on the config
  — never a silent engine switch — so replayed results are stored under
  their own cache keys and ``ENGINE_VERSION`` is untouched.

The file format is deterministic sorted-key JSON (floats survive the
repr round-trip bit-exactly); ``trace_digest`` pins the raw bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.reliability.durability import atomic_write
from repro.simulation.config import SimulationConfig, WorkloadSpec
from repro.simulation.engine import (
    ENGINE_VERSION,
    SKIPPED,
    MediatorSimulation,
    SimulationResult,
)

__all__ = [
    "SKIPPED",
    "TRACE_FORMAT",
    "Trace",
    "TraceRecorder",
    "load_trace",
    "record_trace",
    "replay_config",
    "series_fingerprint",
    "trace_digest",
    "trace_workload",
]

#: Bump when the trace JSON schema changes incompatibly.
TRACE_FORMAT = "repro-trace-1"

#: The workload kinds a trace can record (everything but ``trace``).
_RECORDABLE_KINDS = ("fixed", "ramp", "burst", "piecewise")


class TraceRecorder:
    """Accumulates the arrival stream of one run (an engine observer)."""

    __slots__ = ("times", "consumers", "klasses")

    def __init__(self) -> None:
        self.times: list[float] = []
        self.consumers: list[int] = []
        self.klasses: list[int] = []

    def on_arrival(self, time: float, consumer: int, klass: int) -> None:
        """One arrival; ``klass`` is :data:`SKIPPED` when nothing issued."""
        self.times.append(time)
        self.consumers.append(consumer)
        self.klasses.append(klass)

    def __len__(self) -> int:
        return len(self.times)


@dataclasses.dataclass(frozen=True)
class Trace:
    """One loaded trace file.

    ``workload`` is the *recorded* run's workload payload (None-valued
    fields dropped); ``fingerprint`` is the recording run's full sampled
    series SHA-256, against which a recording-method replay can assert
    byte-identity.
    """

    method: str
    seed: int
    scenario: str | None
    scale: str | None
    duration: float
    n_consumers: int
    n_providers: int
    query_costs: tuple[float, ...]
    workload: dict
    fingerprint: str
    engine_version: str
    times: np.ndarray
    consumers: np.ndarray
    klasses: np.ndarray

    @property
    def events(self) -> int:
        """All recorded arrivals, issued or skipped."""
        return int(self.times.size)

    @property
    def issued(self) -> int:
        """Arrivals that actually issued a query."""
        return int((self.klasses != SKIPPED).sum())


def series_fingerprint(result: SimulationResult) -> str:
    """SHA-256 over the entire sampled output of a run.

    Time axis plus every series in sorted name order, raw float64
    bytes — the same fingerprint the golden tests freeze, so "replay is
    byte-identical" means exactly what the goldens mean by it.
    """
    digest = hashlib.sha256()
    digest.update(result.times().tobytes())
    for name in sorted(result.collector.names):
        digest.update(name.encode())
        digest.update(result.series(name).tobytes())
    return digest.hexdigest()


def trace_digest(path: Path | str) -> str:
    """SHA-256 of a trace file's raw bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def record_trace(
    config: SimulationConfig,
    method: str,
    seed: int,
    path: Path | str,
    scenario: str | None = None,
    scale: str | None = None,
) -> SimulationResult:
    """Run one simulation, recording its issued-query stream to ``path``.

    Returns the recording run's result (which is bit-identical to the
    same run without a recorder — recording only observes).  ``scenario``
    and ``scale`` are optional provenance the replay CLI uses as
    defaults.
    """
    if config.workload.kind == "trace":
        raise ValueError(
            "refusing to record a replay: the config already replays a "
            "trace — record from the original workload instead"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    recorder = TraceRecorder()
    result = MediatorSimulation(
        config, method, seed=seed, observers=(recorder,)
    ).run()
    workload_payload = {
        name: value
        for name, value in dataclasses.asdict(config.workload).items()
        if value is not None
    }
    payload = {
        "format": TRACE_FORMAT,
        "engine_version": ENGINE_VERSION,
        "method": str(result.method_name),
        "seed": int(seed),
        "scenario": scenario,
        "scale": scale,
        "duration": float(config.duration),
        "n_consumers": int(config.n_consumers),
        "n_providers": int(config.n_providers),
        "query_costs": [float(c) for c in config.query_classes.costs],
        "workload": workload_payload,
        "series_sha256": series_fingerprint(result),
        "events": {
            "times": recorder.times,
            "consumers": recorder.consumers,
            "klasses": recorder.klasses,
        },
    }
    atomic_write(
        path,
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        ),
    )
    return result


def load_trace(
    path: Path | str, expected_digest: str | None = None
) -> Trace:
    """Load and validate a trace file.

    ``expected_digest`` (the replay config's ``trace_digest``) pins the
    exact bytes: a trace file that was regenerated or edited after the
    replay config was minted fails loudly instead of silently comparing
    against different arrivals.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise ValueError(f"cannot read trace file {path}: {error}") from None
    if expected_digest is not None:
        actual = hashlib.sha256(raw).hexdigest()
        if actual != expected_digest:
            raise ValueError(
                f"trace file {path} does not match the replay config: "
                f"digest {actual[:16]}… != expected {expected_digest[:16]}…"
            )
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ValueError(f"trace file {path} is not JSON: {error}") from None
    if not isinstance(payload, dict) or payload.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"trace file {path} has format "
            f"{payload.get('format') if isinstance(payload, dict) else None!r}"
            f"; expected {TRACE_FORMAT!r}"
        )
    events = payload["events"]
    times = np.asarray(events["times"], dtype=float)
    consumers = np.asarray(events["consumers"], dtype=np.int64)
    klasses = np.asarray(events["klasses"], dtype=np.int64)
    if not times.size == consumers.size == klasses.size:
        raise ValueError(
            f"trace file {path} is inconsistent: {times.size} times, "
            f"{consumers.size} consumers, {klasses.size} classes"
        )
    duration = float(payload["duration"])
    n_consumers = int(payload["n_consumers"])
    costs = tuple(float(c) for c in payload["query_costs"])
    if times.size:
        if np.any(np.diff(times) < 0):
            raise ValueError(f"trace file {path} has non-monotonic times")
        if times[0] < 0 or times[-1] > duration:
            raise ValueError(
                f"trace file {path} has arrivals outside [0, {duration}]"
            )
        if consumers.min() < 0 or consumers.max() >= n_consumers:
            raise ValueError(
                f"trace file {path} has consumer indices outside "
                f"[0, {n_consumers})"
            )
        if klasses.min() < SKIPPED or klasses.max() >= len(costs):
            raise ValueError(
                f"trace file {path} has query classes outside "
                f"[{SKIPPED}, {len(costs)})"
            )
    return Trace(
        method=str(payload["method"]),
        seed=int(payload["seed"]),
        scenario=payload.get("scenario"),
        scale=payload.get("scale"),
        duration=duration,
        n_consumers=n_consumers,
        n_providers=int(payload["n_providers"]),
        query_costs=costs,
        workload=dict(payload["workload"]),
        fingerprint=str(payload["series_sha256"]),
        engine_version=str(payload.get("engine_version", "")),
        times=times,
        consumers=consumers,
        klasses=klasses,
    )


def trace_workload(path: Path | str) -> WorkloadSpec:
    """The ``kind="trace"`` workload spec replaying ``path``.

    The shape fields are copied from the recorded workload (with its
    kind demoted to ``trace_base_kind``) so shape-derived reads — the
    sampled ``workload_fraction`` series, the optimal-utilisation rule —
    evaluate what the trace was recorded under.
    """
    trace = load_trace(path)
    recorded = dict(trace.workload)
    base_kind = recorded.pop("kind")
    if base_kind not in _RECORDABLE_KINDS:
        raise ValueError(
            f"trace file {path} records workload kind {base_kind!r}; "
            f"expected one of {_RECORDABLE_KINDS}"
        )
    points = recorded.pop("points", None)
    if points is not None:
        recorded["points"] = tuple(
            (float(t), float(v)) for t, v in points
        )
    return WorkloadSpec(
        kind="trace",
        trace_path=str(path),
        trace_digest=trace_digest(path),
        trace_base_kind=base_kind,
        **recorded,
    )


def replay_config(
    config: SimulationConfig, path: Path | str
) -> SimulationConfig:
    """A copy of ``config`` that replays the trace at ``path``."""
    return config.with_workload(trace_workload(path))
