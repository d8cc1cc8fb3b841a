"""Bounded exponential-backoff retry for transient filesystem faults.

Several scheduler paths write small monitoring artefacts (heartbeats,
counter snapshots) or scavenge opportunistically; before this module
they swallowed every ``OSError`` forever — a worker on a flaky NFS
mount could lose its heartbeat for minutes and never notice, holding
leases past their TTL while looking dead to everyone else.

:func:`retry_io` is the one retry policy those sites share: a handful
of attempts, exponential backoff, every retry counted into telemetry
(``reliability.retry`` plus a per-site counter) so a flaky mount shows
up in ``repro telemetry report`` instead of hiding in a silent
``except OSError: pass``.  The final failure is re-raised — *bounding*
the retries is the point; what to do when the budget is spent (give up
on a monitoring artefact, drain the worker) stays a caller decision.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import TypeVar

__all__ = ["retry_io"]

T = TypeVar("T")

#: Default retry schedule: 4 attempts, 0.05 s → 0.1 → 0.2 between them.
DEFAULT_ATTEMPTS = 4
DEFAULT_BASE_DELAY = 0.05
DEFAULT_MAX_DELAY = 2.0


def retry_io(
    operation: Callable[[], T],
    site: str,
    attempts: int = DEFAULT_ATTEMPTS,
    base_delay: float = DEFAULT_BASE_DELAY,
    max_delay: float = DEFAULT_MAX_DELAY,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``operation``, retrying transient ``OSError`` s with backoff.

    Parameters
    ----------
    operation:
        Zero-argument callable; its return value is passed through.
    site:
        Telemetry label: each retry bumps ``reliability.retry`` and
        ``reliability.retry.<site>``.
    attempts:
        Total tries (first call included).  The last failure re-raises.
    base_delay / max_delay:
        Backoff between tries: ``min(max_delay, base_delay * 2**i)``
        after the ``i``-th failure.  Deterministic (no jitter): this
        runs on scheduler paths where consuming any RNG is forbidden.
    sleep:
        Injection point for tests.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    for attempt in range(attempts):
        try:
            return operation()
        except OSError:
            # Looked up here, not at import: telemetry imports the
            # atomic writer from this package.
            from repro.telemetry.registry import get_telemetry

            telemetry = get_telemetry()
            if telemetry is not None:
                telemetry.count("reliability.retry")
                telemetry.count(f"reliability.retry.{site}")
            if attempt == attempts - 1:
                raise
            sleep(min(max_delay, base_delay * (2.0 ** attempt)))
    raise AssertionError("unreachable")  # pragma: no cover
