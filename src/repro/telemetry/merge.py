"""``repro telemetry merge``: one canonical stream per fleet drain.

A fleet drain leaves one events file per process (coordinator, each
worker, each pool child).  This module unions them into a single
merged stream with a *canonical* order, so that every downstream
consumer — the timeline, the ops bundle, a plain ``grep`` — sees the
same bytes no matter which process flushed last or what order the
filesystem lists files in.

Canonical order is ``(t_wall, pid, id, encoded line)``: wall-clock
first so the stream reads as a fleet chronology, with the process id,
per-process sequence id, and finally the full encoded line as
tie-breakers — a total order over any input, so the merge is
deterministic and re-merging an unchanged directory is byte-identical
(the CI smoke diffs exactly that).

The merged file ends with one ``merge``-kind manifest event recording
the input files, the event count, and a digest of the merged lines.
Its timestamp is the newest input event's (never the merging wall
clock), which is what keeps warm re-merges byte-identical.  Inputs are
read through :func:`repro.telemetry.events.read_events`, so a torn or
tampered file refuses the whole merge loudly; the output is written
through the one atomic writer every other artifact uses.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.reliability.durability import atomic_write
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    TelemetryReadError,
    encode_event,
    read_events,
)

__all__ = ["MERGED_EVENTS_NAME", "load_stream", "merge_events"]

#: Default output name.  Deliberately outside the ``events-*.jsonl``
#: input glob so a merged file sitting in the telemetry directory is
#: never re-consumed as an input by the next merge.
MERGED_EVENTS_NAME = "merged.jsonl"


def _sort_key(entry: tuple[dict, str]) -> tuple:
    event, line = entry
    return (event["t_wall"], event["pid"], event["id"], line)


def merge_events(
    run_dir: Path | str, out: Path | str | None = None
) -> dict:
    """Merge every per-process events file under ``run_dir``.

    Returns a summary dict (``out``, ``files``, ``events``,
    ``digest``).  Raises :class:`TelemetryReadError` when the
    directory is missing, holds no events files, or any input refuses
    verification.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise TelemetryReadError(f"no telemetry directory at {run_dir}")
    out = run_dir / MERGED_EVENTS_NAME if out is None else Path(out)

    sources: list[Path] = [
        path
        for path in sorted(run_dir.glob("events-*.jsonl"))
        if not path.name.startswith(".")
    ]
    if not sources:
        raise TelemetryReadError(
            f"no events-*.jsonl files under {run_dir}; nothing to merge"
        )

    entries: list[tuple[dict, str]] = []
    for path in sources:
        for event in read_events(path):
            entries.append((event, encode_event(event)))
    entries.sort(key=_sort_key)

    lines = [line for _, line in entries]
    stream = "\n".join(lines)
    digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()[:16]
    newest = max((event["t_wall"] for event, _ in entries), default=0.0)
    manifest = {
        "v": EVENT_SCHEMA_VERSION,
        "kind": "merge",
        "name": "manifest",
        "id": 0,
        "parent": None,
        "pid": 0,
        "t_wall": newest,
        "dur_s": 0.0,
        "attrs": {
            "files": [path.name for path in sources],
            "events": len(lines),
            "stream_digest": digest,
        },
    }
    lines.append(encode_event(manifest))
    atomic_write(out, ("\n".join(lines) + "\n").encode("utf-8"))
    return {
        "out": str(out),
        "files": len(sources),
        "events": len(entries),
        "digest": digest,
    }


def load_stream(path: Path | str) -> list[dict]:
    """Events from a merged file, a single events file, or a directory.

    A directory prefers its :data:`MERGED_EVENTS_NAME` when present and
    otherwise unions the raw per-process files (unsorted inputs are
    fine for every aggregate consumer; use :func:`merge_events` when
    canonical bytes matter).
    """
    path = Path(path)
    if path.is_dir():
        merged = path / MERGED_EVENTS_NAME
        if merged.is_file():
            return read_events(merged)
        from repro.telemetry.events import read_events_dir

        return read_events_dir(path)
    return read_events(path)
