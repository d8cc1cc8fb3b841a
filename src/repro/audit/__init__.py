"""Per-query allocation decision audit.

The engine's other observability layers (telemetry, tracing) watch the
infrastructure *around* a run — phases, spans, drains.  This package
watches the decision itself: an opt-in engine observer whose
``on_decision`` hook captures, for every served query, the candidate
set size, the per-candidate SQLB scores for the top-K, the chosen
provider, whether the allocation was imposed, and the
satisfaction/adequation deltas applied — buffered in-process and
flushed once per run as a compact columnar ``.npz`` shard plus a
digest-stamped JSON manifest.

The discipline is the telemetry layer's, exactly:

* **No-op when disabled** — :func:`get_audit` is ``None`` unless
  ``$REPRO_AUDIT_DIR`` is set or :func:`configure_audit` was called.
* **Never touches an RNG stream, never reorders arithmetic** — the
  recorder only *reads* per-query vectors after the method has chosen;
  audited runs are bit-identical to unaudited ones and audited store
  payloads are byte-identical (``ENGINE_VERSION`` stays put).
* **Crash-safe flush** — shard strictly before manifest, both through
  the repo's one atomic writer; queue gc/fsck age-gate the two crash
  footprints (dot-prefixed temps and manifest-less shards, plus the
  ``*.npz.tmp`` husks earlier versions left).

Read surfaces live in :mod:`repro.audit.report`: ``repro audit report``
(shares, score gaps, routing matrices, anomaly detection), ``repro
audit explain`` (one decision reconstructed), and ``repro audit diff``
(paired decision-by-decision divergence of two methods over one
recorded trace).
"""

from repro.audit.recorder import (
    AUDIT_DIR_ENV,
    AUDIT_FORMAT,
    AUDIT_TOP_K,
    DecisionAudit,
    audit_from_environment,
    audit_session,
    configure_audit,
    get_audit,
)
from repro.audit.report import (
    AuditReadError,
    AuditShard,
    detect_anomalies,
    diff_payload,
    explain_payload,
    find_shards,
    format_diff,
    format_explain,
    format_report,
    load_shard,
    report_payload,
    resolve_shard,
)

__all__ = [
    "AUDIT_DIR_ENV",
    "AUDIT_FORMAT",
    "AUDIT_TOP_K",
    "AuditReadError",
    "AuditShard",
    "DecisionAudit",
    "audit_from_environment",
    "audit_session",
    "configure_audit",
    "detect_anomalies",
    "diff_payload",
    "explain_payload",
    "find_shards",
    "format_diff",
    "format_explain",
    "format_report",
    "get_audit",
    "load_shard",
    "report_payload",
    "resolve_shard",
]
