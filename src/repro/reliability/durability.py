"""The repo's one atomic writer, and its opt-in power-loss durability.

Every file the repo writes whole goes through :func:`atomic_write`:
the bytes land in a dot-prefixed temp file beside the target, then one
``os.replace`` (or ``os.link``, for an exclusive create) commits the
whole file.  That is *crash*-atomic: a reader never observes a
half-written file, no matter when the writer dies.  It is **not**
*power-loss* durable: on a kernel panic or power cut, the rename can
survive while the file's data blocks never reached the platter —
leaving a fully-committed name with torn contents, the one state the
protocol promises cannot exist.

Setting ``REPRO_DURABLE_WRITES=1`` closes that window the standard way:
``fsync`` the temp file before the rename (data durable before the
name exists) and ``fsync`` the parent directory after it (the name
itself durable).  The tradeoff is honest: one-to-two extra disk
round-trips per file — negligible next to a simulation, very visible
in a metadata-heavy microbenchmark, which is why it is opt-in rather
than default.  Process-crash safety (the thing the chaos harness
exercises) needs no fsync at all; turn this on when the failure
domain includes the whole machine.

Like the failpoint registry, the switch is a
:class:`~repro._io.ProcessLocal`: the environment is read once per
process, never on a hot path.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import suppress
from pathlib import Path

from repro._io import ProcessLocal
from repro.reliability.failpoints import failpoint, torn_payload

__all__ = [
    "DURABLE_WRITES_ENV",
    "atomic_write",
    "configure_durable_writes",
    "durable_writes_enabled",
    "durable_writes_session",
    "fsync_fd",
    "fsync_dir",
]

#: Truthy values ("1", "true", "yes", "on") enable fsync-before-rename
#: plus parent-directory fsync in the atomic writer.
DURABLE_WRITES_ENV = "REPRO_DURABLE_WRITES"

_TRUTHY = ("1", "true", "yes", "on")


def _durable_from_environment() -> bool:
    raw = os.environ.get(DURABLE_WRITES_ENV, "").strip().lower()
    return raw in _TRUTHY


_switch: ProcessLocal[bool] = ProcessLocal(_durable_from_environment)


def durable_writes_enabled() -> bool:
    """Whether writes must fsync (env read once per process)."""
    return _switch.get()


def configure_durable_writes(enabled: bool | None) -> None:
    """Force (or with ``None`` re-resolve from the environment) the
    durability decision — tests and embedders."""
    if enabled is None:
        _switch.reset()
    else:
        _switch.set(enabled)


def durable_writes_session(enabled: bool):
    """Scoped override for tests; restores the prior state."""
    return _switch.override(enabled)


def fsync_fd(fd: int) -> None:
    """``fsync`` one open descriptor (data + metadata)."""
    os.fsync(fd)


def fsync_dir(path: Path | str) -> None:
    """``fsync`` a directory, making renames/links inside it durable.

    Filesystems that cannot fsync a directory (some network mounts
    return EINVAL/ENOTSUP) degrade silently: on such mounts directory
    durability is the server's problem and there is nothing more a
    client can do.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: Path | str, data: bytes, exclusive: bool = False
) -> bool:
    """Write ``data`` to ``path`` with no partially-visible state.

    The bytes are staged in ``.<name>.<random>`` beside ``path`` and
    committed with ``os.replace``.  With ``exclusive`` the commit is an
    ``os.link`` instead, which fails when ``path`` already exists: the
    write then returns ``False`` and leaves the existing file alone
    (``os.replace`` would clobber it, and ``O_EXCL`` alone is not
    atomic).  Returns ``True`` when ``path`` now holds ``data``.

    Failpoint sites: ``store.write.data`` (a ``torn`` rule writes half
    the payload to the temp file and raises), then
    ``store.write.before_replace`` and ``store.write.after_replace``
    around the commit.  Any failure before the commit removes the temp
    file and never touches ``path``.
    """
    path = Path(path)
    durable = durable_writes_enabled()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            torn = torn_payload("store.write.data", data)
            if torn is not None:
                # A writer that died mid-write: a truncated temp file
                # and an error — the final path is never touched.
                handle.write(torn)
                handle.flush()
                raise OSError(
                    f"torn write (failpoint) while writing {path.name}"
                )
            handle.write(data)
            if durable:
                handle.flush()
                fsync_fd(handle.fileno())
        failpoint("store.write.before_replace")
        if exclusive:
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            finally:
                os.unlink(tmp)
        else:
            os.replace(tmp, path)
        failpoint("store.write.after_replace")
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    if durable:
        fsync_dir(path.parent)
    return True
