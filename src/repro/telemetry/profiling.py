"""Opt-in per-job cProfile capture and fleet-wide hotspot aggregation.

Profiling is a third, fully independent observability switch: setting
``$REPRO_PROFILE_DIR`` (or ``repro queue work --profile DIR``) makes
the executor wrap each job in :class:`cProfile.Profile` and dump one
``profile-{host}-{pid}-{n}.pstats`` file per job into that directory.
Everything about it follows the telemetry package's rules:

* **off by default, zero hot-path cost when off** — the executor
  checks one pid-cached environment lookup (a
  :class:`repro._io.ProcessLocal`) and otherwise touches no profiler,
  file, or clock;
* **per-job flush** — stats are dumped as each job finishes, through
  the repo's one atomic writer, so process-pool children that are
  torn down with the pool never lose data;
* **stdlib only** — ``cProfile``/``pstats`` ship with CPython.

``repro telemetry hotspots`` then aggregates every dump under the
directory with :meth:`pstats.Stats.add` and reports a deterministic
top-N table by cumulative time — "where did the fleet's CPU go",
answered across processes, the profile-side complement of the
timeline's wall-clock answer.
"""

from __future__ import annotations

import cProfile
import itertools
import marshal
import os
import socket
from contextlib import contextmanager
from pathlib import Path

from repro._io import ProcessLocal
from repro.reliability.durability import atomic_write

__all__ = [
    "PROFILE_DIR_ENV",
    "active_profile_dir",
    "collect_hotspots",
    "format_hotspots",
    "profile_job",
]

#: Setting this environment variable to a directory enables per-job
#: profiling process-wide (fork-based pool children inherit it).
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"

_dump_counter = itertools.count()


def _profile_dir_from_environment() -> Path | None:
    value = os.environ.get(PROFILE_DIR_ENV, "").strip()
    return Path(value) if value else None


_switch: ProcessLocal[Path | None] = ProcessLocal(
    _profile_dir_from_environment
)


def active_profile_dir() -> Path | None:
    """The profile directory, or ``None`` when profiling is off.

    Cached per pid (the same switch as
    :func:`repro.telemetry.registry.get_telemetry`) so the disabled
    path costs one function call and an integer compare.
    """
    return _switch.get()


@contextmanager
def profile_job(profile_dir: Path | None):
    """Profile the block and dump its stats, or do nothing when off.

    The dump holds the bytes :meth:`cProfile.Profile.dump_stats` would
    write and goes through the atomic writer like every other
    artifact, so readers never see a torn stats file and queue gc
    recognises crashed-writer litter.
    """
    if profile_dir is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.create_stats()
        profile_dir.mkdir(parents=True, exist_ok=True)
        name = (
            f"profile-{socket.gethostname()}-{os.getpid()}"
            f"-{next(_dump_counter)}.pstats"
        )
        atomic_write(profile_dir / name, marshal.dumps(profiler.stats))


def collect_hotspots(profile_dir: Path | str, top: int = 15) -> dict:
    """Aggregate every per-job dump under ``profile_dir``.

    Returns ``{"jobs", "calls", "total_s", "rows"}`` where ``rows`` is
    the top-``top`` functions by cumulative time (ties broken by name,
    so the table is deterministic for a given set of dumps).
    """
    import pstats

    profile_dir = Path(profile_dir)
    paths = [
        path
        for path in sorted(profile_dir.glob("profile-*.pstats"))
        if not path.name.startswith(".")
    ]
    if not paths:
        raise FileNotFoundError(
            f"no profile-*.pstats files under {profile_dir}; run with "
            f"${PROFILE_DIR_ENV} or `queue work --profile` first"
        )
    stats = pstats.Stats(str(paths[0]))
    for path in paths[1:]:
        stats.add(str(path))
    rows = []
    for (filename, line, func), entry in stats.stats.items():
        cc, nc, tt, ct, _callers = entry
        where = os.path.basename(filename) if filename != "~" else "~"
        rows.append(
            {
                "function": f"{where}:{line}({func})",
                "ncalls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], row["function"]))
    return {
        "jobs": len(paths),
        "calls": int(stats.total_calls),
        "total_s": float(stats.total_tt),
        "rows": rows[:top],
    }


def format_hotspots(report: dict) -> str:
    """Human-readable top-N hotspot table."""
    lines = [
        "fleet hotspots (cumulative, all profiled jobs merged)",
        f"  jobs {report['jobs']}  calls {report['calls']}"
        f"  cpu {report['total_s']:.3f}s",
        "",
        "       ncalls  tottime  cumtime  function",
    ]
    for row in report["rows"]:
        lines.append(
            f"  {row['ncalls']:>11}"
            f" {row['tottime_s']:>8.3f}"
            f" {row['cumtime_s']:>8.3f}"
            f"  {row['function']}"
        )
    return "\n".join(lines)
