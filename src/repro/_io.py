"""Stdlib-only I/O kernel: the per-process switch and the crash-litter rule.

* :class:`ProcessLocal` — a value resolved from the environment on
  first use in each process.  Telemetry, the decision audit,
  failpoints, durable writes and profiling are all such switches.
* :func:`crash_litter` — what a writer killed at the wrong instant
  leaves behind, declared once for ``queue gc`` and ``queue fsck``.

Importing nothing but the standard library, this module may be
imported from anywhere, the engine's hot path included.  The one
atomic writer lives in :mod:`repro.reliability.durability`, next to
the fsync helpers and the durability switch it consults.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Generic, TypeVar

__all__ = ["ProcessLocal", "crash_litter"]

T = TypeVar("T")


class ProcessLocal(Generic[T]):
    """A per-process value, resolved lazily and re-resolved after fork.

    ``resolve`` reads the environment and returns the value (``None``
    conventionally meaning "off").  :meth:`get` calls it on first use
    and again in any process whose pid differs from the one that
    resolved or :meth:`set` the value — a forked child re-reads its
    environment instead of inheriting the parent's instance.
    """

    __slots__ = ("_resolve", "_pid", "_value")

    def __init__(self, resolve: Callable[[], T]) -> None:
        self._resolve = resolve
        self._pid: int | None = None
        self._value: T | None = None

    def get(self) -> T:
        """This process's value, resolving it on first use."""
        pid = os.getpid()
        if pid != self._pid:
            self._value = self._resolve()
            self._pid = pid
        return self._value

    def set(self, value: T) -> T:
        """Install ``value`` for this process, whatever the environment."""
        self._value, self._pid = value, os.getpid()
        return value

    def reset(self) -> None:
        """Forget the value: the next :meth:`get` re-reads the environment."""
        self._value, self._pid = None, None

    @contextmanager
    def override(self, value: T) -> Iterator[T]:
        """Install ``value`` for the block, then restore the prior state
        (an unresolved switch stays unresolved)."""
        saved = (self._value, self._pid)
        self.set(value)
        try:
            yield value
        finally:
            self._value, self._pid = saved


def _is_footprint(path: Path, size: int) -> bool:
    """Whether a regular file is a crashed writer's leftover (any age).

    The four footprints:

    * a dot-prefixed temp — the atomic writer's stage file, killed
      before its rename (queue scans and readers skip dot names);
    * ``*.npz.tmp`` — the stage file of an audit shard written by an
      earlier version, which staged shards under that visible suffix;
    * a zero-byte ``events-*.jsonl`` — a telemetry file whose rename
      survived a power loss while its data did not (durable writes
      off); it holds no events and nothing will rewrite it;
    * a ``*.npz`` without its ``.json`` — a payload whose commit
      marker never landed (an audit shard without its manifest, a
      store payload without its metadata); no reader will trust it.
    """
    name = path.name
    if name.startswith(".") or name.endswith(".npz.tmp"):
        return True
    if name.startswith("events-") and name.endswith(".jsonl"):
        return size == 0
    return path.suffix == ".npz" and not path.with_suffix(".json").exists()


def crash_litter(
    directories: Iterable[Path | str], now: float, temp_age: float
) -> list[Path]:
    """Crash footprints directly under ``directories``, ``temp_age``
    seconds old or older against ``now``.

    Younger footprints may belong to a live writer and are left out;
    so are subdirectories and missing directories.  ``now`` should come
    from the same clock that stamps the files' mtimes (the queue's
    ``filesystem_now``), so a skewed host neither flags a live writer's
    fresh temp nor overlooks a long-dead one's.  Paths are returned in
    directory order, sorted by name within each directory.
    """
    litter: list[Path] = []
    for directory in map(Path, directories):
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            try:
                info = path.stat()
            except OSError:
                continue
            if (
                stat.S_ISREG(info.st_mode)
                and now - info.st_mtime >= temp_age
                and _is_footprint(path, info.st_size)
            ):
                litter.append(path)
    return litter
