"""Reliability layer: failure injection, bounded retries, durability.

The scheduler/store stack documents crash-ordering invariants; this
package is what makes them *provable* instead of assumed:

* :mod:`repro.reliability.failpoints` — named injection sites threaded
  through every commit point of the store write path and the queue
  protocol, activated via ``REPRO_FAILPOINTS`` (raise / ENOSPC / torn
  write / hard crash; nth-hit, every-K, or seeded-probability
  policies).  A provable no-op when disabled; never touches a
  simulation RNG stream.
* :mod:`repro.reliability.retry` — :func:`retry_io`, the bounded
  exponential-backoff wrapper the transient-``OSError`` sites share,
  with every retry counted into telemetry.
* :mod:`repro.reliability.durability` — :func:`atomic_write`, the
  one writer every whole-file write in the repo goes through
  (dot-prefixed temp, then ``os.replace``, or ``os.link`` for an
  exclusive create), and its opt-in power-loss durability
  (``REPRO_DURABLE_WRITES=1``: fsync the temp file before the commit
  and the parent directory after it).

At load time the package imports only the standard library and the
stdlib-only :mod:`repro._io`, so telemetry can import the writer from
it without a cycle.

The consumers are ``repro queue fsck`` (the on-disk state-machine
checker), ``repro queue fleet`` (the self-healing worker supervisor),
and the chaos tests/CI job that drain a grid while every instrumented
commit point fails.
"""

from repro.reliability.durability import (
    DURABLE_WRITES_ENV,
    atomic_write,
    configure_durable_writes,
    durable_writes_enabled,
    durable_writes_session,
)
from repro.reliability.failpoints import (
    CRASH_EXIT_CODE,
    FAILPOINTS_ENV,
    FAILPOINTS_SEED_ENV,
    FailpointError,
    Failpoints,
    configure_failpoints,
    failpoint,
    failpoints_session,
    get_failpoints,
    parse_failpoints,
    torn_payload,
    trip_counts,
)
from repro.reliability.retry import retry_io

__all__ = [
    "CRASH_EXIT_CODE",
    "DURABLE_WRITES_ENV",
    "FAILPOINTS_ENV",
    "FAILPOINTS_SEED_ENV",
    "FailpointError",
    "Failpoints",
    "atomic_write",
    "configure_durable_writes",
    "configure_failpoints",
    "durable_writes_enabled",
    "durable_writes_session",
    "failpoint",
    "failpoints_session",
    "get_failpoints",
    "parse_failpoints",
    "retry_io",
    "torn_payload",
    "trip_counts",
]
