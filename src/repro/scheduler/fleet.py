"""``repro queue fleet``: a self-healing supervisor for worker fleets.

One ``repro queue work`` process drains a queue until it crashes; the
queue's lease TTL guarantees nothing is *lost* when it does, but
somebody still has to notice and start a replacement.  On a dev box
that somebody was a human.  :class:`FleetSupervisor` is the automated
version: it spawns ``N`` worker children, watches them, and restarts
any that die — under an explicit restart budget so a *poison
environment* (store directory unwritable, queue on a dead mount, a bug
that kills every worker instantly) parks the fleet with a clear verdict
instead of fork-bombing the machine with doomed workers.

Supervision rules:

* a child exiting **0** finished its drain — it is *done*, not
  restarted (when every child is done the fleet exits 0);
* a child exiting non-zero (including
  :data:`~repro.reliability.failpoints.CRASH_EXIT_CODE` from an
  injected hard crash) is restarted after an exponential backoff of
  ``min(cap, base * 2**restarts_of_that_slot)`` seconds;
* each restart spends one point of the fleet-wide ``restart_budget``;
  when the budget is gone the fleet **parks**: SIGTERMs the survivors,
  waits for them to drain, and reports failure (exit 2 in the CLI);
* SIGTERM/SIGINT to the supervisor fans SIGTERM out to every child —
  each worker finishes its in-flight job, acks, writes its manifest,
  and exits — then the supervisor reaps them all and exits.

Children are ordinary ``python -m repro queue work`` processes with
predictable owner ids (``<prefix>-0`` … ``<prefix>-N-1``), so their
heartbeats, counter snapshots, and manifests appear in ``repro queue
status`` / ``top`` exactly like hand-started workers.  The supervisor's
only mark on the queue directory is one *advisory* state file
(:data:`FLEET_STATE_NAME`, when ``state_path`` is set): its
restart-budget ledger, refreshed through the run and finalised with
``running: false`` on exit, which ``repro queue top`` surfaces while a
fleet is live.  No protocol logic ever reads it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro._checks import check_number
from repro.reliability.durability import atomic_write

__all__ = [
    "ChildOutcome",
    "FLEET_STATE_NAME",
    "FleetReport",
    "FleetSupervisor",
    "worker_command",
]

#: Conventional name of the supervisor's advisory state file inside the
#: queue directory (the CLI passes ``<queue>/fleet.json``).
FLEET_STATE_NAME = "fleet.json"

#: Minimum seconds between steady-state state-file refreshes; events
#: (spawn, crash, restart, park) publish immediately regardless.
_STATE_REFRESH = 2.0

#: Backoff before restarting a crashed slot: base * 2**restarts, capped.
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_CAP = 30.0

#: Fleet-wide restart budget.  Deliberately generous per slot (the
#: default scales with the fleet) — the budget exists to stop a *poison
#: environment*, not to punish one flaky crash.
DEFAULT_RESTARTS_PER_CHILD = 3


@dataclasses.dataclass(frozen=True)
class ChildOutcome:
    """How one fleet slot ended.

    ``state`` is ``drained`` (exited 0), ``crashed`` (non-zero, budget
    left it dead only because the fleet ended first), or ``parked``
    (terminated by the supervisor when the fleet parked or was told to
    stop).  ``restarts`` counts how many times this slot was respawned.
    """

    index: int
    owner: str
    state: str
    exit_code: int | None
    restarts: int


@dataclasses.dataclass(frozen=True)
class FleetReport:
    """What one supervised fleet session did."""

    children: tuple[ChildOutcome, ...]
    restarts: int
    parked: bool
    stopped_by_signal: bool

    @property
    def drained(self) -> bool:
        """Every slot finished its drain voluntarily."""
        return not self.parked and all(
            child.state == "drained" for child in self.children
        )

    def payload(self) -> dict:
        return {
            "drained": self.drained,
            "parked": self.parked,
            "restarts": self.restarts,
            "stopped_by_signal": self.stopped_by_signal,
            "children": [
                dataclasses.asdict(child) for child in self.children
            ],
        }


def worker_command(
    queue_dir: Path | str,
    owner: str,
    cache_dir: Path | str,
    worker_args: tuple[str, ...] = (),
) -> list[str]:
    """The argv of one fleet child: a plain ``repro queue work``."""
    return [
        sys.executable,
        "-m",
        "repro",
        "queue",
        "work",
        "--queue-dir",
        str(queue_dir),
        "--cache-dir",
        str(cache_dir),
        "--owner",
        owner,
        *worker_args,
    ]


@dataclasses.dataclass
class _Slot:
    index: int
    owner: str
    process: subprocess.Popen | None = None
    restarts: int = 0
    restart_at: float | None = None  # monotonic; None = not scheduled
    state: str = "pending"
    exit_code: int | None = None


class FleetSupervisor:
    """Spawn, watch, restart, and drain ``count`` worker children.

    Parameters
    ----------
    spawn:
        ``spawn(index, owner, attempt) -> Popen``-like (needs ``poll``,
        ``terminate``, ``wait``, ``pid``).  The CLI passes a closure
        over :func:`worker_command`; tests inject cheap stand-ins.
    count:
        Number of concurrent worker slots.
    restart_budget:
        Fleet-wide restarts before parking.  ``None`` derives
        ``count * DEFAULT_RESTARTS_PER_CHILD``.
    backoff_base / backoff_cap:
        Per-slot exponential restart backoff, seconds.
    poll_interval:
        Supervisor wake-up period, seconds.
    owner_prefix:
        Children are named ``<prefix>-<index>``.
    state_path:
        Optional path of the advisory state file (the CLI passes
        ``<queue>/fleet.json``).  Refreshed on every supervision event
        and at least every :data:`_STATE_REFRESH` seconds while
        polling; the final write stamps ``running: false`` so readers
        can tell a live fleet from a finished one.  ``None`` (default)
        publishes nothing.
    """

    def __init__(
        self,
        spawn: Callable[[int, str, int], subprocess.Popen],
        count: int,
        restart_budget: int | None = None,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        poll_interval: float = 0.2,
        owner_prefix: str = "fleet",
        on_event: Callable[[str], None] | None = None,
        state_path: Path | str | None = None,
    ) -> None:
        check_number(
            "FleetSupervisor", "count (the fleet size)", count, gt=0, integer=True
        )
        self._spawn = spawn
        self.count = int(count)
        self.restart_budget = (
            count * DEFAULT_RESTARTS_PER_CHILD
            if restart_budget is None
            else int(restart_budget)
        )
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.poll_interval = float(poll_interval)
        self.owner_prefix = owner_prefix
        self._on_event = on_event
        self._stop_requested = False
        self.restarts = 0
        self.state_path = (
            Path(state_path) if state_path is not None else None
        )
        self._slots: list[_Slot] = []
        self._parked = False
        self._state_written = 0.0

    def request_stop(self) -> None:
        """Ask the fleet to drain: SIGTERM fan-out on the next poll."""
        self._stop_requested = True

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)
        self._publish_state(running=True)

    def _publish_state(
        self, running: bool, throttle: bool = False
    ) -> None:
        """Atomically (re)write the advisory state file, if configured.

        Best-effort by design: the protocol never depends on this
        file, so a full disk or vanished directory must not take the
        supervisor down with it.
        """
        if self.state_path is None:
            return
        now = time.monotonic()
        if throttle and now - self._state_written < _STATE_REFRESH:
            return
        payload = {
            "pid": os.getpid(),
            "owner_prefix": self.owner_prefix,
            "count": self.count,
            "running": running,
            "parked": self._parked,
            "restarts": self.restarts,
            "restart_budget": self.restart_budget,
            "restarts_remaining": max(
                0, self.restart_budget - self.restarts
            ),
            "updated": time.time(),
            "children": [
                {
                    "owner": slot.owner,
                    "state": slot.state,
                    "restarts": slot.restarts,
                    "pid": (
                        slot.process.pid
                        if slot.process is not None
                        else None
                    ),
                }
                for slot in self._slots
            ],
        }
        try:
            atomic_write(
                self.state_path,
                json.dumps(payload, sort_keys=True).encode("utf-8"),
            )
            self._state_written = now
        except OSError:  # pragma: no cover - disk trouble
            pass

    def _terminate(self, slot: _Slot, state: str) -> None:
        process = slot.process
        if process is None or process.poll() is not None:
            if slot.state in ("running", "backoff"):
                slot.state = state
                if process is not None:
                    slot.exit_code = process.poll()
            return
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            slot.exit_code = process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged
            process.kill()
            slot.exit_code = process.wait()
        slot.state = state

    def run(self, install_signal_handlers: bool = False) -> FleetReport:
        """Supervise until every slot drains, the budget parks the
        fleet, or a stop is requested; returns the session report."""
        previous_handlers: list[tuple[int, object]] = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous_handlers.append((signum, signal.getsignal(signum)))
                signal.signal(signum, lambda *_: self.request_stop())

        slots = [
            _Slot(index=index, owner=f"{self.owner_prefix}-{index}")
            for index in range(self.count)
        ]
        self._slots = slots
        parked = False
        try:
            for slot in slots:
                slot.process = self._spawn(slot.index, slot.owner, 0)
                slot.state = "running"
                self._event(f"started {slot.owner} (pid {slot.process.pid})")
            while True:
                if self._stop_requested:
                    for slot in slots:
                        self._terminate(slot, "parked")
                    break
                active = False
                for slot in slots:
                    if slot.state == "running":
                        returncode = slot.process.poll()
                        if returncode is None:
                            active = True
                            continue
                        slot.exit_code = returncode
                        if returncode == 0:
                            slot.state = "drained"
                            self._event(f"{slot.owner} drained")
                            continue
                        if self.restarts >= self.restart_budget:
                            # Budget spent: this environment is poison.
                            # Park everything rather than fork-bomb.
                            slot.state = "crashed"
                            self._event(
                                f"{slot.owner} crashed (exit {returncode}); "
                                "restart budget exhausted — parking fleet"
                            )
                            parked = True
                            break
                        delay = min(
                            self.backoff_cap,
                            self.backoff_base * (2.0 ** slot.restarts),
                        )
                        slot.state = "backoff"
                        slot.restart_at = time.monotonic() + delay
                        self._event(
                            f"{slot.owner} crashed (exit {returncode}); "
                            f"restarting in {delay:.1f}s"
                        )
                        active = True
                    elif slot.state == "backoff":
                        active = True
                        if time.monotonic() >= (slot.restart_at or 0.0):
                            if self.restarts >= self.restart_budget:
                                # The budget is fleet-wide: another
                                # slot may have spent the last point
                                # while this one waited out its
                                # backoff.  Park, don't overspawn.
                                slot.state = "crashed"
                                self._event(
                                    f"{slot.owner} not restarted; "
                                    "restart budget exhausted — "
                                    "parking fleet"
                                )
                                parked = True
                                break
                            slot.restarts += 1
                            self.restarts += 1
                            slot.process = self._spawn(
                                slot.index, slot.owner, slot.restarts
                            )
                            slot.state = "running"
                            slot.restart_at = None
                            self._event(
                                f"restarted {slot.owner} "
                                f"(attempt {slot.restarts + 1}, "
                                f"pid {slot.process.pid})"
                            )
                if parked:
                    self._parked = True
                    for other in slots:
                        if other.state in ("running", "backoff"):
                            self._terminate(other, "parked")
                    break
                if not active:
                    break
                self._publish_state(running=True, throttle=True)
                time.sleep(self.poll_interval)
        finally:
            # Never leak children, whatever ended the loop.
            for slot in slots:
                if slot.state in ("running", "backoff"):
                    self._terminate(slot, "parked")
            for signum, handler in previous_handlers:
                signal.signal(signum, handler)
            self._parked = parked
            self._publish_state(running=False)

        return FleetReport(
            children=tuple(
                ChildOutcome(
                    index=slot.index,
                    owner=slot.owner,
                    state=slot.state,
                    exit_code=slot.exit_code,
                    restarts=slot.restarts,
                )
                for slot in slots
            ),
            restarts=self.restarts,
            parked=parked,
            stopped_by_signal=self._stop_requested,
        )


def spawn_cli_worker(
    queue_dir: Path | str,
    cache_dir: Path | str,
    worker_args: tuple[str, ...] = (),
) -> Callable[[int, str, int], subprocess.Popen]:
    """A ``spawn`` callable launching real ``repro queue work`` children.

    Children inherit the supervisor's environment (so
    ``REPRO_FAILPOINTS`` / ``REPRO_DURABLE_WRITES`` / telemetry
    settings propagate into the fleet — that inheritance *is* the chaos
    harness's process-boundary story) and run in their own process
    group session-wise untouched: SIGTERM is delivered by the
    supervisor explicitly, never by terminal broadcast.
    """

    def spawn(index: int, owner: str, attempt: int) -> subprocess.Popen:
        return subprocess.Popen(
            worker_command(queue_dir, owner, cache_dir, worker_args),
            env=os.environ.copy(),
        )

    return spawn
