"""Tests for the reliability layer: failpoints, retry_io, durability."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.reliability import (
    CRASH_EXIT_CODE,
    FAILPOINTS_ENV,
    FAILPOINTS_SEED_ENV,
    FailpointError,
    configure_failpoints,
    durable_writes_session,
    failpoint,
    failpoints_session,
    get_failpoints,
    parse_failpoints,
    retry_io,
    torn_payload,
    trip_counts,
)
from repro.reliability.durability import atomic_write
from repro.reliability.durability import fsync_dir
from repro.telemetry.registry import telemetry_session


class TestParsing:
    def test_nth_hit_policy(self):
        registry = parse_failpoints("site.a:raise:3")
        rule = registry._rules[0]
        assert (rule.pattern, rule.action, rule.nth) == ("site.a", "raise", 3)

    def test_every_k_policy(self):
        registry = parse_failpoints("site.a:enospc:every-2")
        assert registry._rules[0].every == 2

    def test_probability_policy(self):
        registry = parse_failpoints("site.a:torn:p0.25")
        assert registry._rules[0].probability == 0.25

    def test_multiple_clauses(self):
        registry = parse_failpoints("a:raise:1, b:crash:every-5 ,c:torn:p1.0")
        assert [rule.pattern for rule in registry._rules] == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "a:raise",  # missing policy
            "a:explode:1",  # unknown action
            "a:raise:0",  # nth must be >= 1
            "a:raise:every-0",  # every must be >= 1
            "a:raise:p1.5",  # probability out of range
            "a:raise:soon",  # unparseable policy
            ":raise:1",  # empty site
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        # A typo'd chaos spec must never silently inject nothing.
        with pytest.raises(ValueError):
            parse_failpoints(spec)


class TestPolicies:
    def test_nth_hit_fires_exactly_once(self):
        with failpoints_session("s:raise:2"):
            failpoint("s")  # hit 1: pass
            with pytest.raises(FailpointError):
                failpoint("s")  # hit 2: fire
            failpoint("s")  # hit 3: pass again
            assert trip_counts() == {"s": 1}

    def test_every_k_fires_periodically(self):
        with failpoints_session("s:raise:every-3"):
            fired = 0
            for _ in range(9):
                try:
                    failpoint("s")
                except FailpointError:
                    fired += 1
            assert fired == 3

    def test_probability_draws_from_dedicated_seeded_rng(self):
        def fire_pattern(seed: int) -> list[bool]:
            pattern = []
            with failpoints_session("s:raise:p0.5", seed=seed):
                for _ in range(20):
                    try:
                        failpoint("s")
                        pattern.append(False)
                    except FailpointError:
                        pattern.append(True)
            return pattern

        assert fire_pattern(1) == fire_pattern(1)  # deterministic
        assert fire_pattern(1) != fire_pattern(2)  # seed-sensitive
        assert any(fire_pattern(1))

    def test_glob_matches_site_families(self):
        with failpoints_session("queue.*:raise:every-1"):
            with pytest.raises(FailpointError):
                failpoint("queue.ack.before_done")
            with pytest.raises(FailpointError):
                failpoint("queue.heartbeat")
            failpoint("store.write.data")  # unmatched: never fires

    def test_enospc_action_carries_errno(self):
        import errno

        with failpoints_session("s:enospc:1"):
            with pytest.raises(FailpointError) as excinfo:
                failpoint("s")
            assert excinfo.value.errno == errno.ENOSPC

    def test_injected_errors_are_oserrors(self):
        # Every transient-fault handler in the repo catches OSError;
        # injected faults must flow through those same paths.
        assert issubclass(FailpointError, OSError)


class TestTornPayload:
    def test_torn_rule_truncates_payload(self):
        with failpoints_session("s:torn:1"):
            assert torn_payload("s", b"0123456789") == b"01234"
            assert torn_payload("s", b"0123456789") is None  # once

    def test_non_torn_rules_ignore_payload_path(self):
        with failpoints_session("s:raise:1"):
            assert torn_payload("s", b"abc") is None
            # ...and the raise rule did not consume its hit there.
            with pytest.raises(FailpointError):
                failpoint("s")

    def test_atomic_writer_never_touches_final_path(self, tmp_path):
        target = tmp_path / "record.json"
        with failpoints_session("store.write.data:torn:1"):
            with pytest.raises(OSError, match="torn write"):
                atomic_write(target, b"payload-bytes")
        assert not target.exists()


class TestRegistryLifecycle:
    def test_disabled_is_a_noop(self):
        configure_failpoints(None)
        assert get_failpoints() is None
        failpoint("anything")  # must not raise
        assert torn_payload("anything", b"x") is None
        assert trip_counts() == {}

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.setenv(FAILPOINTS_ENV, "s:raise:1")
        monkeypatch.setenv(FAILPOINTS_SEED_ENV, "9")
        configure_failpoints(None)
        # Force lazy re-resolution from the (patched) environment.
        import repro.reliability.failpoints as module

        module._switch.reset()
        registry = get_failpoints()
        assert registry is not None
        with pytest.raises(FailpointError):
            registry.hit("s")

    def test_session_restores_previous_state(self):
        configure_failpoints("outer:raise:1")
        with failpoints_session("inner:raise:1"):
            assert get_failpoints()._rules[0].pattern == "inner"
        assert get_failpoints()._rules[0].pattern == "outer"
        configure_failpoints(None)

    def test_crash_action_exits_with_crash_code(self, tmp_path):
        # os._exit cannot be tested in-process by definition.
        code = (
            "from repro.reliability import failpoint\n"
            "failpoint('boom')\n"
            "print('survived')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={
                **os.environ,
                FAILPOINTS_ENV: "boom:crash:1",
                "PYTHONPATH": str(
                    Path(__file__).resolve().parents[2] / "src"
                ),
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == CRASH_EXIT_CODE
        assert "survived" not in result.stdout


class TestRetryIo:
    def test_returns_value_on_first_success(self):
        assert retry_io(lambda: 42, "site") == 42

    def test_retries_transient_oserrors(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("flaky")
            return "ok"

        slept = []
        assert (
            retry_io(flaky, "site", base_delay=0.01, sleep=slept.append)
            == "ok"
        )
        assert len(calls) == 3
        # Exponential, deterministic (no jitter — RNG is forbidden on
        # scheduler paths).
        assert slept == [0.01, 0.02]

    def test_reraises_after_budget(self):
        def always():
            raise OSError("permanent")

        slept = []
        with pytest.raises(OSError, match="permanent"):
            retry_io(always, "site", attempts=3, sleep=slept.append)
        assert len(slept) == 2  # no sleep after the final failure

    def test_backoff_is_capped(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 5:
                raise OSError("x")
            return None

        slept = []
        retry_io(
            flaky,
            "site",
            attempts=5,
            base_delay=1.0,
            max_delay=3.0,
            sleep=slept.append,
        )
        assert slept == [1.0, 2.0, 3.0, 3.0]

    def test_non_oserror_propagates_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("bug, not weather")

        with pytest.raises(ValueError):
            retry_io(broken, "site", sleep=lambda _: None)
        assert len(calls) == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="attempts"):
            retry_io(lambda: 1, "site", attempts=0)

    def test_retries_are_counted_into_telemetry(self, tmp_path):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 2:
                raise OSError("x")
            return None

        with telemetry_session(tmp_path) as telemetry:
            retry_io(flaky, "mysite", sleep=lambda _: None)
            counters = dict(telemetry.counters)
        assert counters["reliability.retry"] == 1
        assert counters["reliability.retry.mysite"] == 1


class TestDurability:
    def test_disabled_by_default(self, tmp_path):
        # No env, no override: the writer must not fsync (we can only
        # assert behaviourally that writes still work and the flag
        # reads false).
        from repro.reliability import durable_writes_enabled

        assert durable_writes_enabled() is False
        atomic_write(tmp_path / "x", b"data")
        assert (tmp_path / "x").read_bytes() == b"data"

    def test_durable_write_round_trips(self, tmp_path):
        with durable_writes_session(True):
            atomic_write(tmp_path / "x", b"durable-data")
        assert (tmp_path / "x").read_bytes() == b"durable-data"

    def test_env_truthy_values(self, monkeypatch):
        from repro.reliability import (
            configure_durable_writes,
            durable_writes_enabled,
        )

        for raw, expected in (
            ("1", True),
            ("true", True),
            ("ON", True),
            ("0", False),
            ("", False),
            ("no", False),
        ):
            monkeypatch.setenv("REPRO_DURABLE_WRITES", raw)
            configure_durable_writes(None)  # drop the cache
            assert durable_writes_enabled() is expected, raw

    def test_fsync_dir_tolerates_unsyncable_paths(self, tmp_path):
        fsync_dir(tmp_path)  # a real directory: must not raise
        fsync_dir(tmp_path / "missing")  # ENOENT: silently degrades
