"""Recorder unit tests: buffering, commit protocol, enable plumbing."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.audit import recorder as recorder_module
from repro.audit.recorder import (
    AUDIT_DIR_ENV,
    AUDIT_FORMAT,
    AUDIT_TOP_K,
    DecisionAudit,
    audit_session,
    configure_audit,
    get_audit,
    manifest_digest,
    verify_manifest,
)
from repro.reliability.failpoints import FailpointError, failpoints_session
from repro.simulation.config import tiny_config
from repro.simulation.engine import run_simulation

KEY = "deadbeefdeadbeefdeadbeefdeadbeef"


def _committed(tmp_path, method="sqlb", seed=3, duration=60.0):
    config = tiny_config(duration=duration)
    with audit_session(tmp_path) as audit:
        result = run_simulation(config, method, seed=seed)
        manifest_path = audit.commit(KEY, method, config)
    return config, result, audit, manifest_path


class TestCommit:
    def test_shard_and_manifest_roundtrip(self, tmp_path):
        config, result, audit, manifest_path = _committed(tmp_path)
        assert manifest_path is not None
        manifest = json.loads(manifest_path.read_text())
        assert verify_manifest(manifest)
        assert manifest["format"] == AUDIT_FORMAT
        assert manifest["engine_version"] == "1"
        assert manifest["method"] == "sqlb"
        assert manifest["seed"] == 3
        assert manifest["key"] == KEY
        assert manifest["top_k"] == AUDIT_TOP_K
        assert manifest["decisions"] == result.queries_served
        assert manifest["unserved"] == result.queries_unserved
        assert manifest["n_providers"] == config.n_providers
        assert manifest["n_consumers"] == config.n_consumers

        shard_path = manifest_path.parent / manifest["npz"]
        assert shard_path.name == f"audit-sqlb-seed3-{KEY[:16]}.npz"
        payload = shard_path.read_bytes()
        assert hashlib.sha256(payload).hexdigest() == manifest["npz_sha256"]

        with np.load(shard_path) as arrays:
            n = int(arrays["n_decisions"][0])
            assert n == manifest["decisions"]
            assert arrays["time"].shape == (n,)
            assert arrays["topk_scores"].shape == (n, AUDIT_TOP_K)
            # Times are the issue order; monotone non-decreasing.
            assert np.all(np.diff(arrays["time"]) >= 0)
            # The chosen provider is always the top-K's first entry for
            # a score-maximising method like sqlb with rank 0 picks.
            rank0 = arrays["chosen_rank"] == 0
            assert np.all(
                arrays["chosen"][rank0]
                == arrays["topk_providers"][rank0, 0]
            )

    def test_double_commit_returns_none(self, tmp_path):
        _, _, audit, first = _committed(tmp_path)
        assert first is not None
        assert not audit.pending
        assert audit.commit(KEY, "sqlb", tiny_config(duration=60.0)) is None

    def test_commit_without_run_returns_none(self, tmp_path):
        audit = DecisionAudit(tmp_path)
        assert audit.commit(KEY, "sqlb", tiny_config(duration=60.0)) is None

    def test_digest_detects_tamper(self, tmp_path):
        _, _, _, manifest_path = _committed(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert verify_manifest(manifest)
        manifest["decisions"] += 1
        assert not verify_manifest(manifest)
        assert manifest_digest(manifest) != manifest["digest"]


class TestCrashFootprints:
    def test_failpoint_before_shard_leaves_nothing(self, tmp_path):
        config = tiny_config(duration=40.0)
        with audit_session(tmp_path) as audit:
            run_simulation(config, "sqlb", seed=1)
            with failpoints_session("audit.commit.shard:raise:1"):
                with pytest.raises(FailpointError):
                    audit.commit(KEY, "sqlb", config)
        assert list(tmp_path.glob("audit-*")) == []

    def test_failpoint_before_manifest_leaves_orphan_shard(self, tmp_path):
        config = tiny_config(duration=40.0)
        with audit_session(tmp_path) as audit:
            run_simulation(config, "sqlb", seed=1)
            with failpoints_session("audit.commit.manifest:raise:1"):
                with pytest.raises(FailpointError):
                    audit.commit(KEY, "sqlb", config)
        # Exactly the manifest-less-shard footprint gc/fsck age-gate.
        assert list(tmp_path.glob("audit-*.json")) == []
        [shard] = tmp_path.glob("audit-*.npz")
        assert shard.name == f"audit-sqlb-seed1-{KEY[:16]}.npz"


class TestPlumbing:
    @pytest.fixture(autouse=True)
    def _restore_active(self):
        with recorder_module._switch.override(None):
            yield

    def test_get_audit_resolves_from_environment(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(AUDIT_DIR_ENV, str(tmp_path))
        recorder_module._switch.reset()
        audit = get_audit()
        assert audit is not None
        assert audit.audit_dir == tmp_path
        assert audit.pid == os.getpid()

    def test_unset_environment_means_disabled(self, monkeypatch):
        monkeypatch.delenv(AUDIT_DIR_ENV, raising=False)
        recorder_module._switch.reset()
        assert get_audit() is None

    def test_foreign_pid_re_resolves(self, tmp_path, monkeypatch):
        monkeypatch.setenv(AUDIT_DIR_ENV, str(tmp_path))
        inherited = DecisionAudit(tmp_path)
        inherited.pid = inherited.pid + 1  # a forked child's view
        recorder_module._switch.set(inherited)
        recorder_module._switch._pid = inherited.pid
        fresh = get_audit()
        assert fresh is not inherited
        assert fresh.pid == os.getpid()

    def test_configure_none_disables(self, tmp_path):
        assert configure_audit(tmp_path) is not None
        assert get_audit() is not None
        assert configure_audit(None) is None
        assert get_audit() is None

    def test_record_before_begin_is_a_noop(self, tmp_path):
        audit = DecisionAudit(tmp_path)
        audit.on_unserved()  # must not raise
        assert not audit.pending
