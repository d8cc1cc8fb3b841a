"""The per-query decision recorder and its enable/disable plumbing.

One :class:`DecisionAudit` instance per process buffers the decision
records of the run in flight and flushes them once, off the hot path,
as a columnar ``.npz`` shard plus a digest-stamped JSON manifest.  It
is a plain engine observer: the engine binds its ``on_run_start``,
``on_unserved`` and ``on_decision`` hooks once, at construction.  The
plumbing mirrors :mod:`repro.telemetry.registry` exactly:

* :func:`get_audit` returns ``None`` unless ``$REPRO_AUDIT_DIR`` is
  set or :func:`configure_audit` was called — the engine binds the
  hooks only then, so a disabled run pays an empty hook loop per
  query and nothing else.
* A forked pool child inherits the parent's recorder object, so
  :func:`get_audit` (a :class:`repro._io.ProcessLocal` switch)
  re-resolves from the environment in any process other than the one
  that resolved it — each child owns its buffer and commits its own
  shards.
* The recorder never touches an RNG stream and never reorders the
  simulation's arithmetic: scores for the audit record are *recomputed*
  from the same pure functions (:func:`repro.core.scoring.omega_vector`
  / :func:`provider_score_vector`) on the vectors the method already
  received, after selection has happened.  Enabling audit leaves every
  simulation output bit-identical (the golden tests assert this both
  ways) and ``ENGINE_VERSION`` untouched.

Flush protocol (the store's write-order discipline, in miniature):
the shard is written first, then the manifest, both through the repo's
one atomic writer (:func:`repro.reliability.durability.atomic_write`).
The manifest is the commit marker — a reader never trusts a shard
without one — so the two crash footprints are an aged dot-prefixed
temp and an aged manifest-less ``*.npz``, both of which ``queue
gc``/``fsck`` recognise as age-gated litter (as they do the
``*.npz.tmp`` husks earlier versions staged shards under).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from repro._io import ProcessLocal
from repro.core.scoring import omega_vector, provider_score_vector
from repro.reliability.durability import atomic_write
from repro.reliability.failpoints import failpoint

__all__ = [
    "AUDIT_DIR_ENV",
    "AUDIT_FORMAT",
    "AUDIT_TOP_K",
    "DecisionAudit",
    "audit_from_environment",
    "audit_session",
    "configure_audit",
    "get_audit",
    "manifest_digest",
    "verify_manifest",
]

#: Setting this environment variable to a directory enables decision
#: auditing process-wide (pool children included — they re-read it on
#: first use) and directs every committed shard there.
AUDIT_DIR_ENV = "REPRO_AUDIT_DIR"

#: Manifest format tag; bump when the shard schema changes
#: incompatibly.  One schema for every producer is an invariant: the
#: ``repro audit`` read surfaces parse exactly one shape.
AUDIT_FORMAT = "repro-audit-1"

#: Candidates kept per decision, best score first.  A constant — not a
#: knob — so every shard is rectangular and two shards diff cleanly.
AUDIT_TOP_K = 4

#: Hex digits of the SHA-256 kept as the manifest stamp (same width as
#: the telemetry event stamp).
_DIGEST_LENGTH = 16

#: The per-decision shard columns, in shard order, with their dtypes.
#: Buffered as Python lists; the ``topk_*`` rows are fixed-width
#: ``AUDIT_TOP_K`` arrays, stacked at commit.
_COLUMNS = {
    "time": float,
    "consumer": np.int64,
    "klass": np.int64,
    "n_desired": np.int64,
    "n_candidates": np.int64,
    "cache_hit": np.uint8,
    "chosen": np.int64,
    "n_selected": np.int64,
    "imposed": np.uint8,
    "chosen_score": float,
    "chosen_rank": np.int64,
    "score_gap": float,
    "adequation": float,
    "satisfaction": float,
    "consumer_satisfaction": float,
    "topk_providers": np.int64,
    "topk_scores": float,
    "topk_ci": float,
    "topk_pi": float,
    "topk_utilization": float,
}


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def manifest_digest(manifest: dict) -> str:
    """The truncated SHA-256 of ``manifest`` without its stamp."""
    body = {k: v for k, v in manifest.items() if k != "digest"}
    return hashlib.sha256(
        _canonical(body).encode("utf-8")
    ).hexdigest()[:_DIGEST_LENGTH]


def verify_manifest(manifest: dict) -> bool:
    """Whether ``manifest``'s digest stamp matches its content."""
    stamp = manifest.get("digest")
    return isinstance(stamp, str) and manifest_digest(manifest) == stamp


class DecisionAudit:
    """One process's decision buffer and shard writer.

    Parameters
    ----------
    audit_dir:
        Directory committed shards land in (created on first commit).
    """

    def __init__(self, audit_dir: Path | str) -> None:
        self.pid = os.getpid()
        self.audit_dir = Path(audit_dir)
        self._run: dict | None = None

    # -- engine observer hooks ----------------------------------------

    def on_run_start(self, sim) -> None:
        """Reset the buffer for the run ``sim`` is starting.

        ``sim.method.name`` is kept as the engine's method name
        (provenance only); the shard's filename method comes from the
        registry name the committing executor passes to :meth:`commit`.
        """
        config = sim.config
        omega = config.fixed_omega
        self._run = {
            "engine_method": str(sim.method.name),
            "seed": int(sim.seed),
            "capacity_rates": sim.capacity.rates.astype(float),
            "n_classes": len(config.query_classes.costs),
            "epsilon": float(config.epsilon),
            "fixed_omega": None if omega is None else float(omega),
            "unserved": 0,
            **{name: [] for name in _COLUMNS},
        }

    def on_unserved(self) -> None:
        """Count one arrival that found an empty candidate set."""
        if self._run is not None:
            self._run["unserved"] += 1

    def on_decision(
        self,
        request,
        positions: np.ndarray,
        adequation: float,
        satisfaction: float,
        cache_hit: bool,
    ) -> None:
        """Append one decision: the request the method saw, its chosen
        ``positions``, and the query's adequation and satisfaction.

        Everything kept is a *copy* gathered out of the per-query
        vectors — the engine reuses its scratch buffers next arrival —
        and the SQLB score recompute below draws no randomness, so
        recording cannot perturb the run.
        """
        run = self._run
        if run is None:
            return
        query = request.query
        candidates = request.candidates
        provider_intentions = request.provider_intentions
        consumer_intentions = request.consumer_intentions
        utilizations = request.utilizations
        consumer_satisfaction = request.consumer_satisfaction
        if run["fixed_omega"] is not None:
            omegas = np.full(
                provider_intentions.shape, run["fixed_omega"]
            )
        else:
            omegas = omega_vector(
                consumer_satisfaction, request.provider_satisfactions
            )
        scores = provider_score_vector(
            provider_intentions,
            consumer_intentions,
            omegas,
            epsilon=run["epsilon"],
        )
        pos0 = int(positions[0])
        chosen_score = float(scores[pos0])
        finite = scores[np.isfinite(scores)]
        best = float(finite.max()) if finite.size else float("nan")
        # Rank among candidates by score, 0 = best.  ``NaN > x`` is
        # False, so unknown-score candidates never outrank the chosen.
        rank = int(np.sum(scores > chosen_score))

        k = min(AUDIT_TOP_K, candidates.size)
        # Best-score-first, provider index as the deterministic
        # tie-break (lexsort's *last* key is primary; NaN sorts last).
        order = np.lexsort((candidates, -scores))[:k]
        top_providers = np.full(AUDIT_TOP_K, -1, dtype=np.int64)
        top_scores = np.full(AUDIT_TOP_K, np.nan)
        top_ci = np.full(AUDIT_TOP_K, np.nan)
        top_pi = np.full(AUDIT_TOP_K, np.nan)
        top_util = np.full(AUDIT_TOP_K, np.nan)
        top_providers[:k] = candidates[order]
        top_scores[:k] = scores[order]
        top_ci[:k] = consumer_intentions[order]
        top_pi[:k] = provider_intentions[order]
        top_util[:k] = utilizations[order]

        run["time"].append(float(request.time))
        run["consumer"].append(int(query.consumer))
        run["klass"].append(int(query.klass))
        run["n_desired"].append(int(query.n_desired))
        run["n_candidates"].append(int(candidates.size))
        run["cache_hit"].append(bool(cache_hit))
        run["chosen"].append(int(candidates[pos0]))
        run["n_selected"].append(int(positions.size))
        run["imposed"].append(bool(provider_intentions[pos0] < 0.0))
        run["chosen_score"].append(chosen_score)
        run["chosen_rank"].append(rank)
        run["score_gap"].append(best - chosen_score)
        run["adequation"].append(float(adequation))
        run["satisfaction"].append(float(satisfaction))
        run["consumer_satisfaction"].append(float(consumer_satisfaction))
        run["topk_providers"].append(top_providers)
        run["topk_scores"].append(top_scores)
        run["topk_ci"].append(top_ci)
        run["topk_pi"].append(top_pi)
        run["topk_utilization"].append(top_util)

    @property
    def pending(self) -> bool:
        """Whether an uncommitted run buffer exists."""
        return self._run is not None

    # -- commit --------------------------------------------------------

    @staticmethod
    def _arrays(run: dict) -> dict[str, np.ndarray]:
        arrays = {}
        for name, dtype in _COLUMNS.items():
            rows = run[name]
            if not name.startswith("topk_"):
                arrays[name] = np.asarray(rows, dtype=dtype)
            elif rows:
                arrays[name] = np.stack(rows).astype(dtype)
            else:
                arrays[name] = np.empty((0, AUDIT_TOP_K)).astype(dtype)
        arrays["capacity_rates"] = run["capacity_rates"]
        arrays["n_decisions"] = np.asarray([len(run["time"])], dtype=np.int64)
        return arrays

    def commit(self, key: str, method: str, config) -> Path | None:
        """Flush the buffered run as ``audit-<method>-seed<seed>-<key16>``.

        ``key`` is the run's result-store cache key (the shard sits
        "next to" its store entry by name even when the audit directory
        is elsewhere); ``method`` is the registry name the job ran
        under.  Shard strictly before manifest; the manifest is the
        commit marker.  Returns the manifest path, or ``None`` when no
        run is buffered (double commit, or audit enabled mid-run).
        """
        run = self._run
        if run is None:
            return None
        self._run = None
        arrays = self._arrays(run)
        self.audit_dir.mkdir(parents=True, exist_ok=True)
        stem = f"audit-{method}-seed{run['seed']}-{key[:16]}"
        shard_path = self.audit_dir / f"{stem}.npz"
        manifest_path = self.audit_dir / f"{stem}.json"

        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        shard_bytes = buffer.getvalue()
        failpoint("audit.commit.shard")
        atomic_write(shard_path, shard_bytes)
        failpoint("audit.commit.manifest")

        manifest = {
            "format": AUDIT_FORMAT,
            "engine_version": _engine_version(),
            "method": str(method),
            "engine_method": run["engine_method"],
            "seed": run["seed"],
            "key": key,
            "npz": shard_path.name,
            "npz_sha256": hashlib.sha256(shard_bytes).hexdigest(),
            "decisions": int(arrays["n_decisions"][0]),
            "unserved": run["unserved"],
            "top_k": AUDIT_TOP_K,
            "n_providers": int(config.n_providers),
            "n_consumers": int(config.n_consumers),
            "n_classes": run["n_classes"],
            "duration": float(config.duration),
            "epsilon": run["epsilon"],
            "fixed_omega": run["fixed_omega"],
        }
        manifest["digest"] = manifest_digest(manifest)
        atomic_write(
            manifest_path,
            (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode(
                "utf-8"
            ),
        )
        return manifest_path


def _engine_version() -> str:
    # Local import: the engine imports this module at load time.
    from repro.simulation.engine import ENGINE_VERSION

    return ENGINE_VERSION


# ---------------------------------------------------------------------
# process-wide active recorder
# ---------------------------------------------------------------------


def audit_from_environment() -> DecisionAudit | None:
    """A recorder per ``$REPRO_AUDIT_DIR`` (unset/empty → ``None``)."""
    audit_dir = os.environ.get(AUDIT_DIR_ENV, "").strip()
    return DecisionAudit(audit_dir) if audit_dir else None


_switch: ProcessLocal[DecisionAudit | None] = ProcessLocal(
    audit_from_environment
)


def get_audit() -> DecisionAudit | None:
    """The process's active recorder, or ``None`` when disabled.

    Resolved lazily from the environment on first call; a forked pool
    child that inherited the parent's recorder re-resolves so each
    process buffers and commits its own shards.
    """
    return _switch.get()


def configure_audit(
    audit_dir: Path | str | None = None, enabled: bool = True
) -> DecisionAudit | None:
    """Install (or clear) the process-wide recorder explicitly."""
    return _switch.set(
        DecisionAudit(audit_dir)
        if enabled and audit_dir is not None
        else None
    )


def audit_session(audit_dir: Path | str):
    """Scoped recorder for tests.

    Installs a fresh recorder, yields it, and restores whatever was
    active before — including the unresolved lazy state, so a session
    inside a disabled process leaves it disabled.
    """
    return _switch.override(DecisionAudit(audit_dir))
