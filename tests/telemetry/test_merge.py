"""Canonical merged streams: determinism, refusal, zero-byte husks."""

from __future__ import annotations

import pytest

from repro.telemetry.events import (
    TelemetryReadError,
    read_events,
    read_events_dir,
)
from repro.telemetry.merge import (
    MERGED_EVENTS_NAME,
    load_stream,
    merge_events,
)
from repro.telemetry.registry import telemetry_session


def write_process_file(run_dir, name: str, events: int) -> None:
    """One worker-like events file via the real registry flush path."""
    with telemetry_session(run_dir) as telemetry:
        for index in range(events):
            telemetry.event("queue", f"{name}-{index}")
        path = telemetry.flush()
    assert path is not None and path.parent == run_dir


class TestMergeEvents:
    def test_merge_unions_every_file(self, tmp_path):
        write_process_file(tmp_path, "a", 3)
        write_process_file(tmp_path, "b", 2)
        summary = merge_events(tmp_path)
        assert summary["files"] == 2
        # 3 + 2 events plus one snapshot per flushed file.
        assert summary["events"] == 7
        merged = read_events(tmp_path / MERGED_EVENTS_NAME)
        # The trailing manifest records the inputs and the digest.
        manifest = merged[-1]
        assert manifest["kind"] == "merge"
        assert manifest["attrs"]["events"] == 7
        assert manifest["attrs"]["stream_digest"] == summary["digest"]
        assert len(manifest["attrs"]["files"]) == 2

    def test_double_merge_is_byte_identical(self, tmp_path):
        write_process_file(tmp_path, "a", 4)
        write_process_file(tmp_path, "b", 4)
        out = tmp_path / MERGED_EVENTS_NAME
        merge_events(tmp_path)
        first = out.read_bytes()
        merge_events(tmp_path)
        assert out.read_bytes() == first

    def test_merged_output_is_not_a_merge_input(self, tmp_path):
        write_process_file(tmp_path, "a", 2)
        first = merge_events(tmp_path)
        second = merge_events(tmp_path)
        # merged.jsonl sits in the same directory but never feeds back.
        assert second["files"] == first["files"] == 1
        assert second["events"] == first["events"]

    def test_canonical_order_ignores_input_file_order(self, tmp_path):
        write_process_file(tmp_path, "a", 3)
        write_process_file(tmp_path, "b", 3)
        merge_events(tmp_path)
        merged = read_events(tmp_path / MERGED_EVENTS_NAME)[:-1]
        keys = [(e["t_wall"], e["pid"], e["id"]) for e in merged]
        assert keys == sorted(keys)

    def test_torn_input_refuses_whole_merge(self, tmp_path):
        write_process_file(tmp_path, "a", 2)
        torn = tmp_path / "events-host-999-0.jsonl"
        torn.write_text('{"v": 1, "kind": "queue"\n')
        with pytest.raises(TelemetryReadError):
            merge_events(tmp_path)

    def test_missing_dir_and_empty_dir_refuse(self, tmp_path):
        with pytest.raises(TelemetryReadError):
            merge_events(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(TelemetryReadError):
            merge_events(tmp_path / "empty")


class TestZeroByteHusks:
    """A power loss with durable writes off can leave a zero-byte
    events file; that is 'no events', never a torn file."""

    def test_read_events_zero_byte_is_empty(self, tmp_path):
        husk = tmp_path / "events-host-1-0.jsonl"
        husk.touch()
        assert read_events(husk) == []

    def test_dir_read_and_merge_skip_husk_events(self, tmp_path):
        write_process_file(tmp_path, "a", 2)
        (tmp_path / "events-host-999-0.jsonl").touch()
        assert len(read_events_dir(tmp_path)) == 3  # 2 + snapshot
        summary = merge_events(tmp_path)
        assert summary["files"] == 2  # husk read, contributes nothing
        assert summary["events"] == 3


class TestLoadStream:
    def test_dir_prefers_merged_file(self, tmp_path):
        write_process_file(tmp_path, "a", 2)
        merge_events(tmp_path)
        events = load_stream(tmp_path)
        assert events[-1]["kind"] == "merge"

    def test_dir_without_merge_unions_raw_files(self, tmp_path):
        write_process_file(tmp_path, "a", 2)
        events = load_stream(tmp_path)
        assert all(e["kind"] != "merge" for e in events)
        assert len(events) == 3

    def test_single_file_path(self, tmp_path):
        write_process_file(tmp_path, "a", 1)
        merge_events(tmp_path)
        events = load_stream(tmp_path / MERGED_EVENTS_NAME)
        assert events[-1]["kind"] == "merge"
