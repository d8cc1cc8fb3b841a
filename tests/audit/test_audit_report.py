"""Read-surface tests: loader, report, explain, diff, anomaly sweep."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.audit.recorder import audit_session
from repro.audit.report import (
    FREEFALL_WINDOW,
    AuditReadError,
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
from repro.simulation.config import tiny_config
from repro.simulation.engine import run_simulation
from repro.simulation.trace import record_trace, replay_config


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    """Two shards from replays of one recorded trace (sqlb, capacity)."""
    directory = tmp_path_factory.mktemp("shards")
    config = tiny_config(duration=60.0)
    trace_path = directory / "trace.json"
    record_trace(config, "sqlb", 3, trace_path)
    replay = replay_config(config, trace_path)
    for method in ("sqlb", "capacity"):
        with audit_session(directory) as audit:
            run_simulation(replay, method, seed=3)
            audit.commit(f"{method:0<32.32}", method, replay)
    return directory


class TestLoader:
    def test_find_and_resolve(self, shard_dir):
        manifests = find_shards(shard_dir)
        assert len(manifests) == 2
        shard = resolve_shard(shard_dir, method="sqlb")
        assert shard.manifest["method"] == "sqlb"
        # Bare .npz and manifest paths load the same shard.
        by_npz = load_shard(shard.path.with_suffix(".npz"))
        assert by_npz.manifest == shard.manifest

    def test_ambiguous_directory_requires_method(self, shard_dir):
        with pytest.raises(AuditReadError, match="pass --method"):
            resolve_shard(shard_dir)

    def test_missing_manifest_is_loud(self, tmp_path):
        with pytest.raises(AuditReadError, match="no audit manifest"):
            load_shard(tmp_path / "audit-x-seed1-abc.json")

    def test_tampered_manifest_is_loud(self, shard_dir, tmp_path):
        source = find_shards(shard_dir)[0]
        manifest = json.loads(source.read_text())
        manifest["decisions"] += 1
        target = tmp_path / source.name
        target.write_text(json.dumps(manifest))
        with pytest.raises(AuditReadError, match="digest mismatch"):
            load_shard(target)

    def test_payload_hash_mismatch_is_loud(self, shard_dir, tmp_path):
        source = find_shards(shard_dir)[0]
        target = tmp_path / source.name
        target.write_text(source.read_text())
        (tmp_path / source.with_suffix(".npz").name).write_bytes(b"junk")
        with pytest.raises(AuditReadError, match="sha256"):
            load_shard(target)

    def test_decodes_the_bytes_it_hashed(
        self, shard_dir, tmp_path, monkeypatch
    ):
        """A shard swapped for another valid one right after the hash
        check must not be what the loader returns."""
        import hashlib
        import types

        from repro.audit import report as report_module

        hashed = resolve_shard(shard_dir, method="sqlb")
        other = resolve_shard(shard_dir, method="capacity")
        target = tmp_path / hashed.path.name
        target.write_text(hashed.path.read_text())
        payload = tmp_path / hashed.manifest["npz"]
        payload.write_bytes((shard_dir / hashed.manifest["npz"]).read_bytes())
        swap = (shard_dir / other.manifest["npz"]).read_bytes()

        def sha256_then_swap(data):
            digest = hashlib.sha256(data)
            payload.write_bytes(swap)
            return digest

        monkeypatch.setattr(
            report_module, "hashlib", types.SimpleNamespace(sha256=sha256_then_swap)
        )
        shard = load_shard(target)
        assert payload.read_bytes() == swap
        assert shard.arrays.keys() == hashed.arrays.keys()
        for name, values in hashed.arrays.items():
            assert shard.arrays[name].tobytes() == values.tobytes(), name
        assert any(
            values.tobytes() != other.arrays[name].tobytes()
            for name, values in hashed.arrays.items()
        )


class TestReport:
    def test_payload_is_json_safe_and_deterministic(self, shard_dir):
        shard = resolve_shard(shard_dir, method="sqlb")
        payload = report_payload(shard)
        first = json.dumps(payload, sort_keys=True, allow_nan=False)
        second = json.dumps(
            report_payload(resolve_shard(shard_dir, method="sqlb")),
            sort_keys=True,
            allow_nan=False,
        )
        assert first == second

    def test_share_accounting_sums_to_one(self, shard_dir):
        payload = report_payload(resolve_shard(shard_dir, method="sqlb"))
        assert payload["decisions"] > 0
        total = sum(row["share"] for row in payload["providers"])
        assert total == pytest.approx(1.0)
        allocations = sum(
            row["allocations"] for row in payload["providers"]
        )
        assert allocations == payload["decisions"]
        for row in payload["routing"]:
            assert sum(row["providers"]) == row["decisions"]

    def test_sqlb_always_picks_top_rank(self, shard_dir):
        # SQLB is argmax-by-score; every decision should sit at rank 0
        # with zero gap — the recompute matching selection is itself
        # the check that the recorder saw the same vectors.
        payload = report_payload(resolve_shard(shard_dir, method="sqlb"))
        assert payload["top_rank_rate"] == pytest.approx(1.0)
        assert payload["score_gap"]["max"] == pytest.approx(0.0)

    def test_human_rendering_smoke(self, shard_dir):
        payload = report_payload(resolve_shard(shard_dir, method="sqlb"))
        text = format_report(payload)
        assert "audit report: method=sqlb" in text
        assert "routing by class:" in text


class TestExplain:
    def test_explain_matches_columns(self, shard_dir):
        shard = resolve_shard(shard_dir, method="sqlb")
        payload = explain_payload(shard, 0)
        assert payload["index"] == 0
        assert payload["chosen"] == int(shard.arrays["chosen"][0])
        chosen_rows = [r for r in payload["candidates"] if r["chosen"]]
        if payload["chosen_rank"] < len(payload["candidates"]):
            assert chosen_rows and (
                chosen_rows[0]["provider"] == payload["chosen"]
            )
        text = format_explain(payload)
        assert f"decision #0" in text
        assert "chosen: provider" in text

    def test_out_of_range_is_loud(self, shard_dir):
        shard = resolve_shard(shard_dir, method="sqlb")
        with pytest.raises(AuditReadError, match="out of range"):
            explain_payload(shard, 10**9)


class TestDiff:
    def test_same_shard_diffs_clean(self, shard_dir):
        shard = resolve_shard(shard_dir, method="sqlb")
        payload = diff_payload(shard, shard)
        assert payload["disagreements"] == 0
        assert payload["first_divergence"] is None
        assert payload["only_a"] == payload["only_b"] == 0
        assert payload["share_delta"] == []
        assert "agreed on every paired decision" in format_diff(payload)

    def test_replayed_methods_pair_exactly(self, shard_dir):
        a = resolve_shard(shard_dir, method="sqlb")
        b = resolve_shard(shard_dir, method="capacity")
        payload = diff_payload(a, b)
        # Same trace, captive population: every decision pairs.
        assert payload["paired"] == payload["decisions_a"]
        assert payload["paired"] == payload["decisions_b"]
        assert payload["disagreements"] > 0
        first = payload["first_divergence"]
        assert first is not None
        assert first["chosen_a"] != first["chosen_b"]
        # Share deltas cancel: both sides allocate every paired query.
        net = sum(row["delta"] for row in payload["share_delta"])
        assert net == pytest.approx(0.0, abs=1e-12)
        text = format_diff(payload)
        assert "first divergence: decision #" in text

    def test_mismatched_provenance_is_loud(self, shard_dir, tmp_path):
        a = resolve_shard(shard_dir, method="sqlb")
        config = tiny_config(duration=40.0)
        with audit_session(tmp_path) as audit:
            run_simulation(config, "sqlb", seed=9)
            audit.commit("0" * 32, "sqlb", config)
        b = resolve_shard(tmp_path)
        with pytest.raises(AuditReadError, match="same trace"):
            diff_payload(a, b)


def _synthetic(n, chosen, rates, satisfaction=None):
    manifest = {"n_classes": 1}
    arrays = {
        "chosen": np.asarray(chosen, dtype=np.int64),
        "capacity_rates": np.asarray(rates, dtype=float),
        "consumer_satisfaction": (
            np.ones(n) if satisfaction is None else np.asarray(satisfaction)
        ),
    }
    return manifest, arrays


class TestAnomalies:
    def test_balanced_allocation_is_clean(self):
        n = 400
        manifest, arrays = _synthetic(
            n, [i % 4 for i in range(n)], [1.0, 1.0, 1.0, 1.0]
        )
        assert detect_anomalies(manifest, arrays) == []

    def test_starved_provider_is_flagged(self):
        # Provider 3 holds a quarter of the capacity but never wins.
        n = 400
        manifest, arrays = _synthetic(
            n, [i % 3 for i in range(n)], [1.0, 1.0, 1.0, 1.0]
        )
        anomalies = detect_anomalies(manifest, arrays)
        starved = [a for a in anomalies if a["kind"] == "starvation"]
        assert [a["provider"] for a in starved] == [3]
        assert starved[0]["longest_gap"] == n
        assert starved[0]["allocations"] == 0

    def test_zero_capacity_provider_cannot_starve(self):
        n = 400
        manifest, arrays = _synthetic(
            n, [i % 3 for i in range(n)], [1.0, 1.0, 1.0, 0.0]
        )
        assert all(
            a["provider"] != 3
            for a in detect_anomalies(manifest, arrays)
            if a["kind"] == "starvation"
        )

    def test_free_fall_is_flagged_with_extent(self):
        n = 6 * FREEFALL_WINDOW
        # Block means: 1.0, 0.9, …, 0.5 — one monotone run, drop 0.5.
        satisfaction = np.concatenate(
            [
                np.full(FREEFALL_WINDOW, 1.0 - 0.1 * block)
                for block in range(6)
            ]
        )
        manifest, arrays = _synthetic(
            n, [i % 2 for i in range(n)], [1.0, 1.0], satisfaction
        )
        falls = [
            a
            for a in detect_anomalies(manifest, arrays)
            if a["kind"] == "satisfaction-free-fall"
        ]
        assert len(falls) == 1
        assert falls[0]["start_decision"] == 0
        assert falls[0]["end_decision"] == n
        assert falls[0]["drop"] == pytest.approx(0.5)

    def test_shallow_wiggle_not_flagged(self):
        n = 4 * FREEFALL_WINDOW
        satisfaction = np.concatenate(
            [
                np.full(FREEFALL_WINDOW, v)
                for v in (1.0, 0.95, 1.0, 0.95)
            ]
        )
        manifest, arrays = _synthetic(
            n, [i % 2 for i in range(n)], [1.0, 1.0], satisfaction
        )
        assert not any(
            a["kind"] == "satisfaction-free-fall"
            for a in detect_anomalies(manifest, arrays)
        )

    def test_imbalance_is_flagged_both_directions(self):
        # Provider 0 takes everything; 1 has half the capacity.
        n = 200
        manifest, arrays = _synthetic(n, [0] * n, [1.0, 1.0])
        kinds = {
            (a["kind"], a.get("provider"))
            for a in detect_anomalies(manifest, arrays)
        }
        assert ("capacity-imbalance", 0) in kinds
        assert ("capacity-imbalance", 1) in kinds

    def test_short_run_skips_imbalance(self):
        manifest, arrays = _synthetic(10, [0] * 10, [1.0, 1.0])
        assert not any(
            a["kind"] == "capacity-imbalance"
            for a in detect_anomalies(manifest, arrays)
        )
