"""Read surfaces over committed audit shards.

Three consumers, one loader:

* :func:`report_payload` — per-provider allocation shares, score-gap
  distribution, per-class routing matrix, and the anomaly sweep
  (:func:`detect_anomalies`) for one shard.
* :func:`explain_payload` — one decision fully reconstructed: who the
  top-K candidates were, their recomputed SQLB scores, intentions and
  utilisations, which one won and why-shaped context (rank, score gap,
  imposed flag, satisfaction delta applied).
* :func:`diff_payload` — two shards recorded over the *same* trace
  (PR 6 replay) compared decision-by-decision: first divergent query,
  per-provider share deltas, per-class disagreement rates.

Every payload is JSON-safe (non-finite floats become ``None``) and
deterministic — no clocks, no ids — so the CLI's ``--json`` exports
double-render byte-identically (CI ``cmp``'s them).

Anomaly thresholds are module constants, not knobs: a report is an
audit, and an audit with tunable pass criteria is a rubber stamp.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from repro.audit.recorder import AUDIT_FORMAT, verify_manifest

__all__ = [
    "AuditShard",
    "detect_anomalies",
    "diff_payload",
    "explain_payload",
    "find_shards",
    "format_diff",
    "format_explain",
    "format_report",
    "load_shard",
    "report_payload",
    "resolve_shard",
]

#: A provider counts as starving when its longest allocation-free
#: stretch is at least this many times its capacity-fair expected gap
#: (1 / capacity share, in decisions) ...
STARVATION_FACTOR = 8.0
#: ... and at least this many decisions long (tiny runs don't starve).
STARVATION_MIN_WINDOW = 50

#: Consumer-satisfaction free-fall is judged over block means of this
#: many decisions ...
FREEFALL_WINDOW = 64
#: ... and flagged when a monotone run of block means loses at least
#: this much satisfaction in total.
FREEFALL_MIN_DROP = 0.2

#: Capacity-vs-allocation imbalance: flag providers whose allocation
#: share differs from their capacity share by at least this many
#: absolute share points ...
IMBALANCE_THRESHOLD = 0.15
#: ... once the run is long enough for shares to mean anything.
IMBALANCE_MIN_DECISIONS = 50


class AuditReadError(ValueError):
    """An audit shard or manifest is missing, torn, or tampered."""


@dataclasses.dataclass(frozen=True)
class AuditShard:
    """One committed (manifest, arrays) pair, verified end-to-end."""

    manifest: dict
    arrays: dict
    path: Path


def load_shard(path: Path | str) -> AuditShard:
    """Load one shard by its manifest (or ``.npz``, or bare stem) path.

    Refuses loudly on a missing half, a digest-mismatched manifest, or
    a payload whose SHA-256 does not match the manifest's — a shard
    without a verified manifest is a crash footprint, not data.
    """
    path = Path(path)
    if path.suffix == ".npz":
        path = path.with_suffix(".json")
    elif path.suffix != ".json":
        path = path.with_suffix(".json")
    if not path.is_file():
        raise AuditReadError(
            f"no audit manifest at {path} (manifest-less shards are "
            "crash litter; re-run with --audit)"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise AuditReadError(
            f"{path}: torn or non-JSON manifest ({error.msg})"
        ) from None
    if not isinstance(manifest, dict) or not verify_manifest(manifest):
        raise AuditReadError(
            f"{path}: manifest digest mismatch — tampered or corrupted"
        )
    if manifest.get("format") != AUDIT_FORMAT:
        raise AuditReadError(
            f"{path}: unsupported audit format {manifest.get('format')!r} "
            f"(this reader is {AUDIT_FORMAT})"
        )
    shard_path = path.parent / manifest["npz"]
    if not shard_path.is_file():
        raise AuditReadError(f"{path}: payload half {manifest['npz']} missing")
    shard_bytes = shard_path.read_bytes()
    digest = hashlib.sha256(shard_bytes).hexdigest()
    if digest != manifest["npz_sha256"]:
        raise AuditReadError(
            f"{shard_path}: payload sha256 {digest[:16]}… does not match "
            f"its manifest"
        )
    # Decode the very bytes that were hashed: re-opening the path
    # would read whatever the file holds now.
    with np.load(io.BytesIO(shard_bytes)) as data:
        arrays = {name: data[name] for name in data.files}
    return AuditShard(manifest=manifest, arrays=arrays, path=path)


def find_shards(directory: Path | str) -> list[Path]:
    """Manifest paths of every committed shard under ``directory``."""
    directory = Path(directory)
    return sorted(
        path
        for path in directory.glob("audit-*.json")
        if not path.name.startswith(".")
    )


def resolve_shard(path: Path | str, method: str | None = None) -> AuditShard:
    """``path`` as a shard: directly when a file, by lookup in a
    directory (``method`` selects among several; exactly one must
    match)."""
    path = Path(path)
    if path.is_file():
        return load_shard(path)
    if not path.is_dir():
        raise AuditReadError(f"no audit shard or directory at {path}")
    candidates = []
    for manifest_path in find_shards(path):
        shard = load_shard(manifest_path)
        if method is None or shard.manifest["method"] == method:
            candidates.append(shard)
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise AuditReadError(
            f"no committed audit shard in {path}"
            + (f" for method {method!r}" if method else "")
        )
    methods = ", ".join(s.manifest["method"] for s in candidates)
    raise AuditReadError(
        f"{len(candidates)} shards in {path} ({methods}); "
        "pass --method to pick one"
    )


# ---------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------


def _finite(value: float) -> float | None:
    value = float(value)
    return value if np.isfinite(value) else None


def _block_means(values: np.ndarray, width: int) -> list[float]:
    means = []
    for start in range(0, values.size, width):
        block = values[start : start + width]
        finite = block[np.isfinite(block)]
        means.append(float(finite.mean()) if finite.size else float("nan"))
    return means


def detect_anomalies(manifest: dict, arrays: dict) -> list[dict]:
    """The deterministic anomaly sweep over one shard's arrays.

    Three detectors, fixed thresholds (module constants):

    * **starvation** — a provider with capacity went at least
      ``STARVATION_FACTOR / capacity_share`` consecutive decisions
      (and ``STARVATION_MIN_WINDOW``) without an allocation;
    * **satisfaction-free-fall** — a monotone run of
      ``FREEFALL_WINDOW``-decision block means of pre-decision consumer
      satisfaction dropped by ``FREEFALL_MIN_DROP`` or more;
    * **capacity-imbalance** — a provider's allocation share differs
      from its capacity share by ``IMBALANCE_THRESHOLD`` share points.
    """
    chosen = arrays["chosen"]
    n = int(chosen.size)
    rates = np.asarray(arrays["capacity_rates"], dtype=float)
    total_rate = float(rates.sum())
    capacity_shares = rates / total_rate if total_rate > 0 else rates * 0.0
    counts = np.bincount(chosen, minlength=rates.size) if n else np.zeros(
        rates.size, dtype=np.int64
    )
    anomalies: list[dict] = []

    # -- starvation ---------------------------------------------------
    for provider in range(rates.size):
        share = float(capacity_shares[provider])
        if share <= 0.0 or n == 0:
            continue
        positions = np.flatnonzero(chosen == provider)
        if positions.size == 0:
            longest = n
        else:
            longest = max(
                int(positions[0]),
                int(n - 1 - positions[-1]),
                int(np.diff(positions).max() - 1)
                if positions.size > 1
                else 0,
            )
        expected_gap = 1.0 / share
        threshold = max(STARVATION_FACTOR * expected_gap, STARVATION_MIN_WINDOW)
        if longest >= threshold:
            anomalies.append(
                {
                    "kind": "starvation",
                    "provider": provider,
                    "longest_gap": longest,
                    "expected_gap": expected_gap,
                    "capacity_share": share,
                    "allocations": int(counts[provider]),
                }
            )

    # -- satisfaction free-fall ---------------------------------------
    satisfaction = arrays["consumer_satisfaction"]
    means = _block_means(satisfaction, FREEFALL_WINDOW)
    start = 0
    for index in range(1, len(means) + 1):
        falling = (
            index < len(means)
            and np.isfinite(means[index])
            and np.isfinite(means[index - 1])
            and means[index] < means[index - 1]
        )
        if falling:
            continue
        if index - 1 > start:
            drop = means[start] - means[index - 1]
            if np.isfinite(drop) and drop >= FREEFALL_MIN_DROP:
                anomalies.append(
                    {
                        "kind": "satisfaction-free-fall",
                        "start_decision": start * FREEFALL_WINDOW,
                        "end_decision": min(n, index * FREEFALL_WINDOW),
                        "drop": float(drop),
                        "from": _finite(means[start]),
                        "to": _finite(means[index - 1]),
                    }
                )
        start = index

    # -- capacity-vs-allocation imbalance -----------------------------
    if n >= IMBALANCE_MIN_DECISIONS:
        allocation_shares = counts / n
        for provider in range(rates.size):
            delta = float(
                allocation_shares[provider] - capacity_shares[provider]
            )
            if abs(delta) >= IMBALANCE_THRESHOLD:
                anomalies.append(
                    {
                        "kind": "capacity-imbalance",
                        "provider": provider,
                        "allocation_share": float(
                            allocation_shares[provider]
                        ),
                        "capacity_share": float(capacity_shares[provider]),
                        "delta": delta,
                    }
                )
    return anomalies


def report_payload(shard: AuditShard) -> dict:
    """The full machine-readable report for one shard."""
    manifest = shard.manifest
    arrays = shard.arrays
    chosen = arrays["chosen"]
    n = int(chosen.size)
    rates = np.asarray(arrays["capacity_rates"], dtype=float)
    total_rate = float(rates.sum())
    capacity_shares = rates / total_rate if total_rate > 0 else rates * 0.0
    counts = np.bincount(chosen, minlength=rates.size) if n else np.zeros(
        rates.size, dtype=np.int64
    )
    imposed_counts = (
        np.bincount(
            chosen[arrays["imposed"].astype(bool)], minlength=rates.size
        )
        if n
        else np.zeros(rates.size, dtype=np.int64)
    )

    providers = [
        {
            "provider": provider,
            "allocations": int(counts[provider]),
            "share": float(counts[provider] / n) if n else 0.0,
            "capacity_share": float(capacity_shares[provider]),
            "imposed": int(imposed_counts[provider]),
        }
        for provider in range(rates.size)
    ]

    gaps = arrays["score_gap"]
    finite_gaps = gaps[np.isfinite(gaps)]
    if finite_gaps.size:
        score_gap = {
            "count": int(finite_gaps.size),
            "mean": float(finite_gaps.mean()),
            "p50": float(np.quantile(finite_gaps, 0.5)),
            "p90": float(np.quantile(finite_gaps, 0.9)),
            "max": float(finite_gaps.max()),
        }
    else:
        score_gap = {
            "count": 0, "mean": None, "p50": None, "p90": None, "max": None,
        }

    n_classes = int(manifest["n_classes"])
    klasses = arrays["klass"]
    routing = []
    for klass in range(n_classes):
        mask = klasses == klass
        class_counts = (
            np.bincount(chosen[mask], minlength=rates.size)
            if n
            else np.zeros(rates.size, dtype=np.int64)
        )
        class_n = int(class_counts.sum())
        top = int(class_counts.argmax()) if class_n else None
        routing.append(
            {
                "klass": klass,
                "decisions": class_n,
                "providers": class_counts.astype(int).tolist(),
                "top_provider": top,
                "top_share": float(class_counts.max() / class_n)
                if class_n
                else None,
            }
        )

    hits = int(arrays["cache_hit"].sum()) if n else 0
    anomalies = detect_anomalies(manifest, arrays)
    ranks = arrays["chosen_rank"]
    return {
        "format": AUDIT_FORMAT,
        "method": manifest["method"],
        "seed": manifest["seed"],
        "key": manifest["key"],
        "engine_version": manifest["engine_version"],
        "decisions": n,
        "unserved": int(manifest["unserved"]),
        "imposed": int(arrays["imposed"].sum()) if n else 0,
        "top_rank_rate": float((ranks == 0).mean()) if n else None,
        "cache": {"hits": hits, "misses": n - hits},
        "providers": providers,
        "score_gap": score_gap,
        "routing": routing,
        "anomalies": anomalies,
        "anomaly_count": len(anomalies),
    }


def explain_payload(shard: AuditShard, index: int) -> dict:
    """One decision fully reconstructed from the shard's columns."""
    arrays = shard.arrays
    n = int(arrays["chosen"].size)
    if not 0 <= index < n:
        raise AuditReadError(
            f"decision index {index} out of range (shard holds {n})"
        )
    top_k = int(shard.manifest["top_k"])
    chosen = int(arrays["chosen"][index])
    candidates = []
    for position in range(top_k):
        provider = int(arrays["topk_providers"][index, position])
        if provider < 0:
            continue
        candidates.append(
            {
                "rank": position,
                "provider": provider,
                "score": _finite(arrays["topk_scores"][index, position]),
                "consumer_intention": _finite(
                    arrays["topk_ci"][index, position]
                ),
                "provider_intention": _finite(
                    arrays["topk_pi"][index, position]
                ),
                "utilization": _finite(
                    arrays["topk_utilization"][index, position]
                ),
                "chosen": provider == chosen,
            }
        )
    return {
        "format": AUDIT_FORMAT,
        "method": shard.manifest["method"],
        "seed": shard.manifest["seed"],
        "index": index,
        "time": float(arrays["time"][index]),
        "consumer": int(arrays["consumer"][index]),
        "klass": int(arrays["klass"][index]),
        "n_desired": int(arrays["n_desired"][index]),
        "n_candidates": int(arrays["n_candidates"][index]),
        "cache_hit": bool(arrays["cache_hit"][index]),
        "chosen": chosen,
        "imposed": bool(arrays["imposed"][index]),
        "chosen_score": _finite(arrays["chosen_score"][index]),
        "chosen_rank": int(arrays["chosen_rank"][index]),
        "score_gap": _finite(arrays["score_gap"][index]),
        "adequation": _finite(arrays["adequation"][index]),
        "satisfaction": _finite(arrays["satisfaction"][index]),
        "consumer_satisfaction_before": _finite(
            arrays["consumer_satisfaction"][index]
        ),
        "candidates": candidates,
    }


def diff_payload(a: AuditShard, b: AuditShard) -> dict:
    """Paired decision-by-decision divergence of two shards.

    Both shards must come from replays of the *same* recorded trace
    (same seed, environment, and horizon) — that is what makes pairing
    by (time, consumer) exact: replay reads both from the trace file,
    so a decision present in only one shard means the consumer had
    departed under that method's dynamics, not clock noise.
    """
    ma, mb = a.manifest, b.manifest
    mismatches = [
        f"{field} {ma[field]!r} != {mb[field]!r}"
        for field in ("seed", "n_providers", "n_consumers", "duration")
        if ma[field] != mb[field]
    ]
    if mismatches:
        raise AuditReadError(
            "shards do not come from the same trace: " + "; ".join(mismatches)
        )
    ta, ca = a.arrays["time"], a.arrays["consumer"]
    tb, cb = b.arrays["time"], b.arrays["consumer"]
    chosen_a, chosen_b = a.arrays["chosen"], b.arrays["chosen"]
    klass_a = a.arrays["klass"]
    na, nb = int(ta.size), int(tb.size)
    n_providers = int(ma["n_providers"])
    n_classes = int(ma["n_classes"])

    paired = disagreements = only_a = only_b = 0
    first = None
    class_paired = [0] * n_classes
    class_disagree = [0] * n_classes
    counts_a = np.zeros(n_providers, dtype=np.int64)
    counts_b = np.zeros(n_providers, dtype=np.int64)
    i = j = 0
    while i < na and j < nb:
        key_a = (float(ta[i]), int(ca[i]))
        key_b = (float(tb[j]), int(cb[j]))
        if key_a == key_b:
            paired += 1
            klass = int(klass_a[i])
            class_paired[klass] += 1
            pa, pb = int(chosen_a[i]), int(chosen_b[j])
            counts_a[pa] += 1
            counts_b[pb] += 1
            if pa != pb:
                disagreements += 1
                class_disagree[klass] += 1
                if first is None:
                    first = {
                        "index_a": i,
                        "index_b": j,
                        "time": key_a[0],
                        "consumer": key_a[1],
                        "klass": klass,
                        "chosen_a": pa,
                        "chosen_b": pb,
                        "score_a": _finite(a.arrays["chosen_score"][i]),
                        "score_b": _finite(b.arrays["chosen_score"][j]),
                    }
            i += 1
            j += 1
        elif key_a < key_b:
            only_a += 1
            i += 1
        else:
            only_b += 1
            j += 1
    only_a += na - i
    only_b += nb - j

    share_delta = []
    if paired:
        shares_a = counts_a / paired
        shares_b = counts_b / paired
        for provider in range(n_providers):
            delta = float(shares_a[provider] - shares_b[provider])
            if delta != 0.0:
                share_delta.append(
                    {
                        "provider": provider,
                        "share_a": float(shares_a[provider]),
                        "share_b": float(shares_b[provider]),
                        "delta": delta,
                    }
                )
        share_delta.sort(key=lambda row: (-abs(row["delta"]), row["provider"]))

    per_class = [
        {
            "klass": klass,
            "paired": class_paired[klass],
            "disagreements": class_disagree[klass],
            "rate": class_disagree[klass] / class_paired[klass]
            if class_paired[klass]
            else None,
        }
        for klass in range(n_classes)
    ]
    return {
        "format": AUDIT_FORMAT,
        "method_a": ma["method"],
        "method_b": mb["method"],
        "seed": ma["seed"],
        "decisions_a": na,
        "decisions_b": nb,
        "paired": paired,
        "only_a": only_a,
        "only_b": only_b,
        "disagreements": disagreements,
        "disagreement_rate": disagreements / paired if paired else None,
        "first_divergence": first,
        "per_class": per_class,
        "share_delta": share_delta,
    }


# ---------------------------------------------------------------------
# human renderings
# ---------------------------------------------------------------------


def _fmt(value: float | None, spec: str = ".3f") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def format_report(payload: dict, top: int = 10) -> str:
    """The human table rendering of one :func:`report_payload`."""
    lines = [
        f"audit report: method={payload['method']} seed={payload['seed']} "
        f"decisions={payload['decisions']} unserved={payload['unserved']} "
        f"imposed={payload['imposed']}",
        f"candidate cache: {payload['cache']['hits']} hits / "
        f"{payload['cache']['misses']} misses; top-rank picks "
        f"{_fmt(payload['top_rank_rate'], '.1%')}",
    ]
    gap = payload["score_gap"]
    lines.append(
        f"score gap (best - chosen): mean {_fmt(gap['mean'])}  "
        f"p50 {_fmt(gap['p50'])}  p90 {_fmt(gap['p90'])}  "
        f"max {_fmt(gap['max'])}"
    )
    ranked = sorted(
        payload["providers"],
        key=lambda row: (-row["allocations"], row["provider"]),
    )
    lines.append(f"{'provider':>8} {'alloc':>7} {'share':>7} "
                 f"{'cap-share':>9} {'imposed':>7}")
    for row in ranked[:top]:
        lines.append(
            f"{row['provider']:>8} {row['allocations']:>7} "
            f"{row['share']:>7.1%} {row['capacity_share']:>9.1%} "
            f"{row['imposed']:>7}"
        )
    if len(ranked) > top:
        rest = ranked[top:]
        lines.append(
            f"{'…':>8} {sum(r['allocations'] for r in rest):>7} "
            f"{sum(r['share'] for r in rest):>7.1%} "
            f"{sum(r['capacity_share'] for r in rest):>9.1%} "
            f"{sum(r['imposed'] for r in rest):>7}"
            f"   ({len(rest)} more providers)"
        )
    lines.append("routing by class:")
    for row in payload["routing"]:
        lines.append(
            f"  class {row['klass']}: {row['decisions']} decisions, "
            f"top provider "
            + (
                f"{row['top_provider']} ({row['top_share']:.1%})"
                if row["decisions"]
                else "-"
            )
        )
    if payload["anomalies"]:
        lines.append(f"anomalies ({payload['anomaly_count']}):")
        for anomaly in payload["anomalies"]:
            if anomaly["kind"] == "starvation":
                lines.append(
                    f"  starvation: provider {anomaly['provider']} went "
                    f"{anomaly['longest_gap']} decisions unallocated "
                    f"(capacity-fair gap "
                    f"{anomaly['expected_gap']:.1f}, "
                    f"{anomaly['allocations']} allocations total)"
                )
            elif anomaly["kind"] == "satisfaction-free-fall":
                lines.append(
                    f"  satisfaction free-fall: "
                    f"{_fmt(anomaly['from'])} → {_fmt(anomaly['to'])} "
                    f"(drop {anomaly['drop']:.3f}) over decisions "
                    f"{anomaly['start_decision']}–{anomaly['end_decision']}"
                )
            else:
                lines.append(
                    f"  capacity imbalance: provider "
                    f"{anomaly['provider']} allocated "
                    f"{anomaly['allocation_share']:.1%} vs capacity "
                    f"{anomaly['capacity_share']:.1%} "
                    f"(Δ {anomaly['delta']:+.1%})"
                )
    else:
        lines.append("anomalies (0): none detected")
    return "\n".join(lines)


def format_explain(payload: dict) -> str:
    """The human rendering of one :func:`explain_payload`."""
    mode = "imposed" if payload["imposed"] else "selected"
    lines = [
        f"decision #{payload['index']} (method={payload['method']} "
        f"seed={payload['seed']})",
        f"t={payload['time']:.3f}  consumer={payload['consumer']}  "
        f"class={payload['klass']}  wants {payload['n_desired']} "
        f"provider(s) from {payload['n_candidates']} candidates "
        f"(cache {'hit' if payload['cache_hit'] else 'miss'})",
        f"chosen: provider {payload['chosen']} ({mode}; score rank "
        f"{payload['chosen_rank']}, score {_fmt(payload['chosen_score'])}, "
        f"gap to best {_fmt(payload['score_gap'])})",
        f"applied: adequation {_fmt(payload['adequation'])}, "
        f"satisfaction {_fmt(payload['satisfaction'])} "
        f"(consumer satisfaction before: "
        f"{_fmt(payload['consumer_satisfaction_before'])})",
        f"top-{len(payload['candidates'])} candidates by score:",
        f"{'provider':>8} {'score':>8} {'CI':>7} {'PI':>7} {'util':>6}",
    ]
    for row in payload["candidates"]:
        marker = "  ← chosen" if row["chosen"] else ""
        lines.append(
            f"{row['provider']:>8} {_fmt(row['score']):>8} "
            f"{_fmt(row['consumer_intention']):>7} "
            f"{_fmt(row['provider_intention']):>7} "
            f"{_fmt(row['utilization'], '.2f'):>6}{marker}"
        )
    return "\n".join(lines)


def format_diff(payload: dict, top: int = 8) -> str:
    """The human rendering of one :func:`diff_payload`."""
    lines = [
        f"audit diff: {payload['method_a']} vs {payload['method_b']} "
        f"(seed {payload['seed']})",
        f"paired {payload['paired']} decisions "
        f"(+{payload['only_a']} only in {payload['method_a']}, "
        f"+{payload['only_b']} only in {payload['method_b']}); "
        f"disagreements {payload['disagreements']} "
        f"({_fmt(payload['disagreement_rate'], '.1%')})",
    ]
    first = payload["first_divergence"]
    if first is None:
        lines.append("first divergence: none — the methods agreed on "
                     "every paired decision")
    else:
        lines.append(
            f"first divergence: decision #{first['index_a']} "
            f"(t={first['time']:.3f}, consumer {first['consumer']}, "
            f"class {first['klass']}): "
            f"{payload['method_a']} → provider {first['chosen_a']} "
            f"(score {_fmt(first['score_a'])}), "
            f"{payload['method_b']} → provider {first['chosen_b']} "
            f"(score {_fmt(first['score_b'])})"
        )
    lines.append("per-class disagreement:")
    for row in payload["per_class"]:
        lines.append(
            f"  class {row['klass']}: {row['disagreements']}/{row['paired']} "
            f"({_fmt(row['rate'], '.1%')})"
        )
    if payload["share_delta"]:
        lines.append(f"largest share deltas "
                     f"({payload['method_a']} - {payload['method_b']}):")
        for row in payload["share_delta"][:top]:
            lines.append(
                f"  provider {row['provider']:>4}: "
                f"{row['share_a']:.1%} vs {row['share_b']:.1%} "
                f"(Δ {row['delta']:+.1%})"
            )
    return "\n".join(lines)
