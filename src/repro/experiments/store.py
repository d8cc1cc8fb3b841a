"""Persistent, content-addressed store for simulation results.

Simulations are fully deterministic given ``(config, method, seed)``, so
a completed :class:`~repro.simulation.engine.SimulationResult` can be
cached on disk and reused across interpreter sessions — the paper's
evaluation re-runs the same (environment, method) families for many
figures, and the in-process ``lru_cache`` the harness used before this
store threw all of that work away at interpreter exit.

Cache keys are SHA-256 hashes of a canonical JSON payload covering the
full :class:`~repro.simulation.config.SimulationConfig`, the method
name, the seed, and the engine's
:data:`~repro.simulation.engine.ENGINE_VERSION` tag; any change to any
of those yields a different key, and bumping the engine version
invalidates every cached run at once.  The config's canonical JSON is
the bulk of that payload and the same for every (method, seed) of one
config, so callers that key a grid open a :func:`key_scope`, inside
which each config object is serialized once.

Each cached run is two files under the store root:

* ``<key>.npz`` — the numeric payload: the sampled time axis, every
  collector series (``series__<name>``), every end-of-run array
  (``final__<name>``), and the two response-time scalars.  ``float64``
  all the way down, so a round-trip is bit-exact.
* ``<key>.json`` — the metadata: provenance, counters, the departure
  records, and the engine version.

Writes go through the repo's one atomic writer
(:func:`repro.reliability.durability.atomic_write`, tempfile + rename)
so a crashed or parallel writer never leaves a partially-written entry
behind; unreadable entries are treated as misses and overwritten on
the next ``put``.

Every read decodes the ``.npz`` through one private reader,
:class:`_Payload`: one file read, the zip records parsed with
``struct``, one ``zlib`` call per decoded member, numpy's ``.npy``
header parser run once per distinct header, and anything ``put`` never
writes refused as unreadable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import struct
import threading
import zipfile
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro._io import DEFAULT_TEMP_AGE, crash_litter, filesystem_now
from repro.reliability.durability import atomic_write
from repro.simulation.config import SimulationConfig
from repro.simulation.departures import DepartureRecord
from repro.simulation.engine import ENGINE_VERSION, SimulationResult
from repro.simulation.stats import TimeSeriesCollector
from repro.telemetry.registry import get_telemetry

__all__ = [
    "ResultStore",
    "StoreVerifyReport",
    "StoredSeries",
    "cache_key",
    "key_scope",
]

#: Bump when the *serialization format* (not the simulation semantics)
#: changes incompatibly; part of every cache key.
_FORMAT_VERSION = "1"

#: The two version tags as they appear in a key payload.
_ENGINE_VERSION_JSON = json.dumps(ENGINE_VERSION)
_FORMAT_VERSION_JSON = json.dumps(_FORMAT_VERSION)

_DEPARTURE_FIELDS = tuple(
    f.name for f in dataclasses.fields(DepartureRecord)
)

#: What reading a torn, truncated or foreign payload raises: the
#: reader reports a zip structure ``put`` never writes, or a member
#: whose inflated size or CRC-32 disagrees with the directory, as
#: ``BadZipFile``, a header cut short as ``struct.error``, and a short
#: or corrupt deflate stream as ``zlib.error``; it refuses every other
#: form ``put`` never writes with ``ValueError``
#: (``json.JSONDecodeError`` is one too).
_UNREADABLE = (
    OSError,
    ValueError,
    struct.error,
    zlib.error,
    zipfile.BadZipFile,
)

#: The only member preamble ``put`` writes: ``.npy`` magic, version 1.0.
_NPY_MAGIC = np.lib.format.magic(1, 0)

#: The three zip records ``put``'s archives hold, little-endian: the end
#: record (magic, this disk, directory disk, entries on this disk,
#: entries, directory size, directory offset, comment length), a
#: directory entry (magic, flags, method, CRC-32, compressed size, size,
#: name, extra and comment lengths, local header offset) and a local
#: header (magic, name and extra lengths).  Versions, times,
#: attributes and the local CRC and sizes are skipped: none changes a
#: byte of a member, and versions and local sizes differ between Python
#: versions.
_END = struct.Struct("<4s4H2LH")
_ENTRY = struct.Struct("<4s4xHH4xLLLHHH8xL")
_LOCAL = struct.Struct("<4s22xHH")

#: The one extra field a local header may carry: the zip64 size record
#: (tag 1, 16 bytes) that ``force_zip64`` writes, 20 bytes in all.
_ZIP64_TAG = struct.pack("<HH", 1, 16)


@functools.lru_cache(maxsize=128)
def _npy_header(header: bytes) -> tuple[tuple[int, ...], np.dtype, int]:
    """Shape, dtype and element count of one version-1.0 ``.npy`` header.

    ``header`` runs from the two-byte length field to the end of the
    padded header dict; its exact bytes are the memo key, so numpy's
    parser (and its ``max_header_size`` check) runs once per distinct
    header.  Fortran order and object dtypes are refused, the latter as
    ``np.load(allow_pickle=False)`` refuses them.
    """
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
        io.BytesIO(header)
    )
    if fortran_order or dtype.hasobject:
        raise ValueError(f"refused .npy header {header[2:]!r}")
    return shape, dtype, math.prod(shape)


class _Payload:
    """One stored ``.npz``: read once, members decoded on demand.

    Accepts only what ``put`` writes: one zip archive whose end record
    closes the file with no comment and no zip64 records, whose members
    are deflated ``.npy`` files with ASCII names, laid out back to back
    from byte 0 to the directory in directory order, each directory
    entry without flags, extra field or comment, and each local header
    naming its member as the directory does, with no extra field or
    only the zip64 size record.  A member decodes only if it inflates
    to exactly the size and CRC-32 the directory records and holds a
    version-1.0, C-order, non-object ``.npy`` with exactly the payload
    its header declares.  Anything else, a zero-byte or truncated file
    included, raises one of :data:`_UNREADABLE`.  Every array equals
    ``np.load``'s bit for bit, with the same dtype and shape, and is
    writable and owns its memory.
    """

    def __init__(self, path: Path) -> None:
        data = path.read_bytes()
        self._data = memoryview(data)
        end = len(data) - _END.size
        (
            magic, disk, first_disk, disk_entries, entries, size, offset,
            comment,
        ) = _END.unpack_from(data, end)
        if (magic, disk, first_disk, disk_entries, comment) != (
            b"PK\x05\x06", 0, 0, entries, 0
        ) or offset + size != end:
            raise zipfile.BadZipFile("refused zip end record")
        #: name -> (data offset, compressed size, size, CRC-32)
        self.members: dict[str, tuple[int, int, int, int]] = {}
        at = offset
        next_header = 0
        for _ in range(entries):
            (
                magic, flags, method, crc, packed, unpacked, name_length,
                extra_length, comment_length, header,
            ) = _ENTRY.unpack_from(data, at)
            at += _ENTRY.size + name_length
            name = data[at - name_length : at]
            if (
                magic != b"PK\x01\x02"
                or flags
                or method != zlib.DEFLATED
                or extra_length
                or comment_length
                or header != next_header
            ):
                raise zipfile.BadZipFile(f"refused zip entry {name!r}")
            magic, local_name_length, local_extra_length = (
                _LOCAL.unpack_from(data, header)
            )
            name_end = header + _LOCAL.size + local_name_length
            start = name_end + local_extra_length
            extra = data[name_end:start]
            next_header = start + packed
            if (
                magic != b"PK\x03\x04"
                or data[header + _LOCAL.size : name_end] != name
                or extra
                and not (len(extra) == 20 and extra.startswith(_ZIP64_TAG))
                or next_header > offset
            ):
                raise zipfile.BadZipFile(f"refused local header {name!r}")
            text = name.decode("ascii")
            if not text.endswith(".npy") or text[:-4] in self.members:
                raise ValueError(f"refused npz member {text!r}")
            self.members[text[:-4]] = (start, packed, unpacked, crc)
        if at != end or next_header != offset:
            raise zipfile.BadZipFile("zip members do not tile the file")

    def array(self, name: str) -> np.ndarray:
        at, packed, unpacked, crc = self.members[name]
        raw = zlib.decompress(self._data[at : at + packed], -15)
        if len(raw) != unpacked or zlib.crc32(raw) != crc:
            raise zipfile.BadZipFile(f"Bad CRC-32 or size for {name!r}")
        if raw[:8] != _NPY_MAGIC:
            raise ValueError(f"member {name!r} is not a version-1.0 .npy")
        start = 10 + int.from_bytes(raw[8:10], "little")
        shape, dtype, count = _npy_header(raw[8:start])
        if len(raw) - start != count * dtype.itemsize:
            raise ValueError(
                f"member {name!r} holds {len(raw) - start} payload bytes, "
                f"its header declares {count * dtype.itemsize}"
            )
        array = np.frombuffer(raw, dtype=dtype, count=count, offset=start)
        return array.reshape(shape).copy()


#: Each thread's open key scope, ``configs``: config id -> (config, its
#: canonical JSON), or None outside a scope.
_scopes = threading.local()


def _forget_scopes() -> None:
    global _scopes
    _scopes = threading.local()


# A pool child forked inside a scope would otherwise keep the parent's
# scope open for its whole life, and grow it by one unpickled config
# per job it keys.
os.register_at_fork(after_in_child=_forget_scopes)


@contextmanager
def key_scope() -> Iterator[None]:
    """Serialize each config object once while the block runs.

    Inside the block, :func:`cache_key` keeps the canonical JSON of
    every config *object* it keys and reuses it for that object's
    other (method, seed) runs, so keying a grid costs one serialization
    per config rather than one per run.  Nothing is keyed by value
    (equal configs built apart are serialized apart), the scope holds
    each config it keyed so that no other object can take its id, and
    all of it is dropped when the outermost block exits: a scope
    entered inside another folds into it.  Scopes are per thread, and
    a forked child starts outside any.  Configs are frozen, so the
    JSON of an object the scope holds cannot go stale.
    """
    if getattr(_scopes, "configs", None) is not None:
        yield
        return
    _scopes.configs = {}
    try:
        yield
    finally:
        _scopes.configs = None


def cache_key(config: SimulationConfig, method: str, seed: int) -> str:
    """Stable content hash identifying one deterministic run.

    Hashes the canonical JSON of the full config (nested dataclasses
    included), the method name, the seed, and the engine/format version
    tags.  Two runs share a key if and only if they are guaranteed to
    produce identical results.

    ``WorkloadSpec`` fields that are ``None`` (the kind-specific knobs
    of the burst/piecewise kinds) are dropped from the payload: an
    unset knob cannot influence the run, and dropping it keeps the keys
    of pre-existing fixed/ramp stores valid when new optional workload
    fields are introduced.  Any future optional workload field must
    follow the same None-means-absent convention.

    The opt-in top-level scenario dimensions (``faults``, ``strategic``)
    follow the same convention: ``None`` means the feature is absent and
    is dropped, so keys minted before those fields existed stay valid.
    Only these named fields are dropped — other top-level ``None``
    values (``fixed_omega``, ``fixed_provider_satisfaction``) predate
    the convention and are serialized as ``null`` in every existing key.

    The payload is ``json.dumps`` of ``{"config", "engine_version",
    "format_version", "method", "seed"}`` with sorted keys and no
    whitespace, written out here around the config's canonical JSON
    (:func:`_canonical_config`), which an open :func:`key_scope`
    builds once per config object.
    """
    configs = getattr(_scopes, "configs", None)
    if configs is None:
        text = _canonical_config(config)
    else:
        entry = configs.get(id(config))
        if entry is None:
            entry = configs[id(config)] = (config, _canonical_config(config))
        text = entry[1]
    canonical = (
        f'{{"config":{text},"engine_version":{_ENGINE_VERSION_JSON},'
        f'"format_version":{_FORMAT_VERSION_JSON},'
        f'"method":{json.dumps(str(method))},"seed":{int(seed)}}}'
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_config(config: SimulationConfig) -> str:
    """The config's part of the key payload, as canonical JSON."""
    payload = _fields(config)
    payload["workload"] = {
        name: value
        for name, value in _fields(config.workload).items()
        if value is not None
    }
    for name in ("faults", "strategic"):
        if payload.get(name) is None:
            payload.pop(name, None)
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_fields
    )


def _fields(instance) -> dict:
    """One dataclass level as ``{field: value}``, nested values as they
    are: ``json.dumps`` calls back here for each nested dataclass, so
    the canonical string is ``dataclasses.asdict``'s without its deep
    copy."""
    return {
        field.name: getattr(instance, field.name)
        for field in dataclasses.fields(instance)
    }


@dataclasses.dataclass(frozen=True)
class StoredSeries:
    """The sampled-series slice of one cached run.

    The read-side analysis layer wants *only* the time axis and a few
    named series per run — rebuilding a full
    :class:`~repro.simulation.engine.SimulationResult` (departure
    records, final arrays, metadata) for every (seed × figure) read
    would be pure waste.  This is that cheap view: the ``.npz`` payload
    alone, optionally restricted to requested names.
    """

    times: np.ndarray
    series: dict[str, np.ndarray]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.series)


@dataclasses.dataclass(frozen=True)
class StoreVerifyReport:
    """What :meth:`ResultStore.verify` found.

    ``orphan_npz`` are keys whose ``.npz`` half exists without its
    ``.json`` — an interrupted ``put`` (the json is written last, so
    it is the commit marker; the entry was never visible) — and is
    crash litter, old enough that no live ``put`` can still commit it.
    ``orphan_npz_in_flight`` are the younger ones: a live ``put``
    between its two writes, listed but not unclean and never pruned.
    ``orphan_json`` are the reverse — a json without its npz, which
    should be impossible under the documented write order and means
    the payload was deleted or the order was violated.  ``unreadable``
    (deep verify only) are exactly the complete pairs ``get`` misses
    on: a json or npz that fails to parse (power-loss torn writes, a
    zero-byte payload) or a schema mismatch.  All three are safe to
    prune: none can ever be served as a hit.
    """

    entries: int
    orphan_npz: tuple[str, ...]
    orphan_json: tuple[str, ...]
    unreadable: tuple[str, ...]
    orphan_npz_in_flight: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not (
            self.orphan_npz or self.orphan_json or self.unreadable
        )


class ResultStore:
    """Disk-backed cache of completed simulation results.

    Parameters
    ----------
    root:
        Directory holding the cached entries (created on first write).

    The store keeps hit/miss/write counters so callers (and tests) can
    assert cache behaviour — e.g. that a warm re-run of an experiment
    family performs zero new simulations.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- counters ----------------------------------------------------
    # Store operations are per-job, not per-query, so mirroring each
    # into the (possibly disabled) telemetry registry costs nothing
    # measurable.

    def _record_hit(self) -> None:
        self.hits += 1
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.count("store.hits")

    def _record_miss(self) -> None:
        self.misses += 1
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.count("store.misses")

    def _record_write(self, n_bytes: int) -> None:
        self.writes += 1
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.count("store.writes")
            telemetry.count("store.write_bytes", n_bytes)

    # -- introspection ----------------------------------------------

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ResultStore(root={str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )

    def key(self, config: SimulationConfig, method: str, seed: int) -> str:
        return cache_key(config, method, seed)

    def contains(
        self, config: SimulationConfig, method: str, seed: int
    ) -> bool:
        key = cache_key(config, method, seed)
        return self._json_path(key).is_file() and self._npz_path(key).is_file()

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*.npz"):
            path.unlink(missing_ok=True)
        return removed

    def verify(
        self,
        deep: bool = True,
        now: float | None = None,
        temp_age: float = DEFAULT_TEMP_AGE,
    ) -> StoreVerifyReport:
        """Audit the on-disk state against the write-order contract.

        Pairs top-level ``<key>.json`` / ``<key>.npz`` halves by stem
        (``glob`` never matches the dot-prefixed atomic-write temps, and
        manifests/figures live in subdirectories).  With ``deep=True``
        each complete pair is also loaded exactly as ``get`` loads it —
        the only way to catch a power-loss torn file that kept its
        committed name — so ``unreadable`` is exactly the committed
        pairs ``get`` misses on.

        An orphan payload is split by the crash-litter rule: at least
        ``temp_age`` seconds old against ``now`` it is ``orphan_npz``,
        younger it is ``orphan_npz_in_flight``.  ``now`` defaults to
        the store filesystem's clock
        (:func:`repro._io.filesystem_now`), probed only when there is
        an orphan payload to judge.
        """
        if not self.root.is_dir():
            return StoreVerifyReport(
                entries=0, orphan_npz=(), orphan_json=(), unreadable=()
            )
        json_keys = {path.stem for path in self.root.glob("*.json")}
        npz_keys = {path.stem for path in self.root.glob("*.npz")}
        paired = json_keys & npz_keys
        unreadable = tuple(
            key
            for key in sorted(paired)
            if deep and self._load(key, None) is None
        )
        orphans = npz_keys - json_keys
        aged: set[str] = set()
        if orphans:
            now = filesystem_now(self.root) if now is None else now
            aged = orphans & {
                path.stem
                for path in crash_litter([self.root], now, temp_age)
                if path.suffix == ".npz"
            }
        return StoreVerifyReport(
            entries=len(paired),
            orphan_npz=tuple(sorted(aged)),
            orphan_json=tuple(sorted(json_keys - npz_keys)),
            unreadable=unreadable,
            orphan_npz_in_flight=tuple(sorted(orphans - aged)),
        )

    def prune_invalid(self, report: StoreVerifyReport | None = None) -> int:
        """Delete every entry ``verify`` condemned; returns files removed.

        Safe by construction: orphan halves and unreadable pairs can
        never be served as hits, so removing them only reclaims space
        and silences fsck.  A payload the report holds in flight is a
        live ``put``'s first half, and stays.
        """
        if report is None:
            report = self.verify(deep=True)
        removed = 0
        for key in report.orphan_npz:
            self._npz_path(key).unlink(missing_ok=True)
            removed += 1
        for key in report.orphan_json:
            self._json_path(key).unlink(missing_ok=True)
            removed += 1
        for key in report.unreadable:
            for path in (self._json_path(key), self._npz_path(key)):
                if path.exists():
                    path.unlink(missing_ok=True)
                    removed += 1
        return removed

    # -- paths -------------------------------------------------------

    def _json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    # -- load / save -------------------------------------------------

    def get(
        self, config: SimulationConfig, method: str, seed: int
    ) -> SimulationResult | None:
        """The cached result for this run, or None on a miss.

        The caller's ``config`` is attached to the returned result (the
        key proves it is the config the run was simulated with), so the
        store never needs to reconstruct a config from JSON.
        """
        result = self._load(cache_key(config, method, seed), config)
        if result is None:
            self._record_miss()
        else:
            self._record_hit()
        return result

    def _load(
        self, key: str, config: SimulationConfig | None
    ) -> SimulationResult | None:
        """The committed entry ``key`` rebuilt, or None if unservable.

        The one load behind ``get`` and deep ``verify``: unreadable or
        schema-mismatched entries come back as None (``get``'s miss,
        ``verify``'s ``unreadable``) and the next put() overwrites them.
        """
        try:
            meta = json.loads(self._json_path(key).read_text())
            payload = _Payload(self._npz_path(key))
            arrays = {name: payload.array(name) for name in payload.members}
            return self._rebuild(meta, arrays, config)
        except _UNREADABLE + (LookupError, TypeError):
            return None

    def load_series(
        self,
        config: SimulationConfig,
        method: str,
        seed: int,
        names: tuple[str, ...] | None = None,
    ) -> StoredSeries | None:
        """The sampled series of one cached run, or None on a miss.

        Reads only the ``.npz`` payload — no metadata parse, no result
        reconstruction — so aggregating many seeds over one named
        series (the analysis layer's band extraction) costs one file
        read per run, and only ``times`` and the wanted series are
        decoded.  ``names`` restricts which series are materialised
        (None = all).

        An entry without its ``.json`` commit marker (a ``put`` torn
        between its two writes) is a miss, exactly as for :meth:`get`;
        the marker is only checked for, never parsed.  An unreadable or
        schema-mismatched entry is a miss (None) too, but a *readable*
        entry that lacks a requested name raises
        ``KeyError``: every run of one engine version samples the same
        series catalogue, so an absent name is a caller typo — and
        reporting it as "missing data" would send the user chasing a
        store problem that does not exist.
        """
        key = cache_key(config, method, seed)
        if not self._json_path(key).is_file():
            self._record_miss()
            return None
        try:
            payload = _Payload(self._npz_path(key))
        except _UNREADABLE:
            payload = None
        if payload is None or "times" not in payload.members:
            self._record_miss()
            return None
        available = {
            name.removeprefix("series__")
            for name in payload.members
            if name.startswith("series__")
        }
        if names is None:
            wanted: tuple[str, ...] = tuple(sorted(available))
        else:
            unknown = [n for n in names if n not in available]
            if unknown:
                raise KeyError(
                    f"unknown series {sorted(unknown)}; this run "
                    f"sampled: {', '.join(sorted(available))}"
                )
            wanted = tuple(names)
        try:
            times = payload.array("times")
            series = {
                name: payload.array(f"series__{name}") for name in wanted
            }
        except _UNREADABLE:
            self._record_miss()
            return None
        self._record_hit()
        return StoredSeries(times=times, series=series)

    def put(self, result: SimulationResult, method: str | None = None) -> str:
        """Persist one completed result; returns its cache key.

        ``method`` is the *registry name* the run was requested under.
        It defaults to ``result.method_name``, but the two can differ:
        registry aliases (``knbest`` / ``knbest_score``) build method
        objects sharing one class-level name, and keying by that would
        let one alias's results answer for the other.  Callers that
        know the registry name (the executor does) must pass it.
        """
        key = cache_key(
            result.config, method or result.method_name, result.seed
        )
        self.root.mkdir(parents=True, exist_ok=True)

        arrays: dict[str, np.ndarray] = {
            "times": result.times(),
            "response_times": np.asarray(
                [result.response_time_mean, result.response_time_post_warmup],
                dtype=float,
            ),
        }
        for name, values in result.collector.as_dict().items():
            arrays[f"series__{name}"] = values
        for name, values in result.final.items():
            arrays[f"final__{name}"] = np.asarray(values)

        meta = {
            "engine_version": ENGINE_VERSION,
            "format_version": _FORMAT_VERSION,
            "method_name": result.method_name,
            "seed": int(result.seed),
            "queries_issued": int(result.queries_issued),
            "queries_served": int(result.queries_served),
            "queries_unserved": int(result.queries_unserved),
            "initial_providers": int(result.initial_providers),
            "initial_consumers": int(result.initial_consumers),
            "departures": [
                dataclasses.asdict(record) for record in result.departures
            ],
        }

        # savez to memory first so the on-disk write can be atomic.
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        npz_payload = buffer.getvalue()
        json_payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        # Write order is a contract: npz strictly before json.  Both
        # ``contains`` and ``get`` require the json half, so the json is
        # the commit marker — a writer that dies between the two writes
        # leaves an invisible orphan npz (verify()/fsck prune it), never
        # a visible entry with a missing payload.
        atomic_write(self._npz_path(key), npz_payload)
        atomic_write(self._json_path(key), json_payload)
        self._record_write(len(npz_payload) + len(json_payload))
        return key

    @staticmethod
    def _rebuild(
        meta: dict,
        arrays: dict[str, np.ndarray],
        config: SimulationConfig | None,
    ) -> SimulationResult:
        series = {
            name.removeprefix("series__"): values
            for name, values in arrays.items()
            if name.startswith("series__")
        }
        final = {
            name.removeprefix("final__"): values
            for name, values in arrays.items()
            if name.startswith("final__")
        }
        departures = [
            DepartureRecord(
                **{name: record[name] for name in _DEPARTURE_FIELDS}
            )
            for record in meta["departures"]
        ]
        response_times = arrays["response_times"]
        return SimulationResult(
            method_name=meta["method_name"],
            seed=int(meta["seed"]),
            config=config,
            collector=TimeSeriesCollector.from_arrays(
                arrays["times"], series
            ),
            departures=departures,
            queries_issued=int(meta["queries_issued"]),
            queries_served=int(meta["queries_served"]),
            queries_unserved=int(meta["queries_unserved"]),
            response_time_mean=float(response_times[0]),
            response_time_post_warmup=float(response_times[1]),
            final=final,
            initial_providers=int(meta["initial_providers"]),
            initial_consumers=int(meta["initial_consumers"]),
        )
