"""Digest-stamped JSONL span events: one schema, atomic files.

Every telemetry event — run/cell/phase spans, queue protocol events,
registry snapshots — is one JSON object per line with a common envelope
(:data:`EVENT_SCHEMA_VERSION`, a per-process sequence id, an optional
parent span id, a kind, a name, wall-clock timestamp, duration, and a
free-form ``attrs`` dict).  Each line carries a ``digest`` stamp — the
truncated SHA-256 of the line's canonical JSON without the stamp — so
the read side can tell a complete, untampered event from a torn or
hand-edited one and refuse loudly instead of aggregating garbage.

Files are written whole through the repo's one atomic writer,
:func:`repro.reliability.durability.atomic_write` (stdlib-only, so
telemetry stays free of numpy and the engine), so a reader never
observes a partially-written file from a live writer; a torn file
therefore indicates real corruption, not a race.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "TelemetryReadError",
    "encode_event",
    "read_events",
    "read_events_dir",
]

#: Bump when the event envelope changes incompatibly.  One schema for
#: every producer — engine, executor, store, queue — is an invariant:
#: the report surface parses exactly one shape.
EVENT_SCHEMA_VERSION = 1

#: Hex digits of the SHA-256 kept as the per-line stamp.
_DIGEST_LENGTH = 16


class TelemetryReadError(ValueError):
    """A telemetry events file is torn, tampered, or not this schema."""


def _canonical(event: dict) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def _stamp(event: dict) -> str:
    return hashlib.sha256(
        _canonical(event).encode("utf-8")
    ).hexdigest()[:_DIGEST_LENGTH]


def encode_event(event: dict) -> str:
    """One event as its stamped JSONL line (no trailing newline).

    The digest covers the canonical JSON of everything *except* the
    stamp itself, so verification is a recompute-and-compare.
    """
    body = {key: value for key, value in event.items() if key != "digest"}
    body["digest"] = _stamp(body)
    return _canonical(body)


def verify_event(event: dict) -> bool:
    """Whether ``event``'s digest stamp matches its content."""
    stamp = event.get("digest")
    if not isinstance(stamp, str):
        return False
    body = {key: value for key, value in event.items() if key != "digest"}
    return _stamp(body) == stamp


def read_events(path: Path | str) -> list[dict]:
    """Every event of one JSONL file, refusing torn or tampered lines.

    Raises :class:`TelemetryReadError` on the first undecodable or
    digest-mismatched line — a file written through the atomic writer
    is all-or-nothing, so a bad line means the file was truncated,
    concatenated, or edited and *none* of it should be trusted for
    aggregation.

    A zero-byte file is *not* torn: it is what a power loss leaves
    when the rename reached the disk and the data did not (durable
    writes off), and it simply holds no events.  Queue gc/fsck
    age-gate such husks away like any other crash litter.
    """
    path = Path(path)
    events: list[dict] = []
    text = path.read_text(encoding="utf-8")
    if not text:
        return events
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise TelemetryReadError(
                f"{path}:{number}: torn or non-JSON event line "
                f"({error.msg}); refusing the whole file"
            ) from None
        if not isinstance(event, dict) or not verify_event(event):
            raise TelemetryReadError(
                f"{path}:{number}: event digest mismatch — the file was "
                "tampered with or corrupted; refusing the whole file"
            )
        if event.get("v") != EVENT_SCHEMA_VERSION:
            raise TelemetryReadError(
                f"{path}:{number}: unsupported event schema "
                f"{event.get('v')!r} (this reader is "
                f"v{EVENT_SCHEMA_VERSION})"
            )
        events.append(event)
    return events


def read_events_dir(run_dir: Path | str) -> list[dict]:
    """All events under one telemetry run directory, file by file.

    Files are read in sorted-name order; dot-prefixed entries (atomic
    temp files of a live writer) are skipped, mirroring the queue's
    ``_live_entries`` convention.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise TelemetryReadError(f"no telemetry directory at {run_dir}")
    events: list[dict] = []
    for path in sorted(run_dir.glob("events-*.jsonl")):
        if path.name.startswith("."):
            continue
        events.extend(read_events(path))
    return events
