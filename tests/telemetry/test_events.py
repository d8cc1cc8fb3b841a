"""Tests for digest-stamped JSONL events: round-trip and refusal."""

from __future__ import annotations

import json

import pytest

from repro.reliability.durability import atomic_write
from repro.telemetry.events import (
    EVENT_SCHEMA_VERSION,
    TelemetryReadError,
    encode_event,
    read_events,
    read_events_dir,
    verify_event,
)


def sample_event(**overrides) -> dict:
    event = {
        "v": EVENT_SCHEMA_VERSION,
        "kind": "phase",
        "name": "scoring",
        "id": 3,
        "parent": 1,
        "pid": 1234,
        "t_wall": 1000.0,
        "dur_s": 0.25,
        "attrs": {"method": "sqlb"},
    }
    event.update(overrides)
    return event


class TestEncodeVerify:
    def test_round_trip(self):
        line = encode_event(sample_event())
        decoded = json.loads(line)
        assert verify_event(decoded)
        assert decoded["name"] == "scoring"
        assert decoded["attrs"] == {"method": "sqlb"}

    def test_stamp_is_deterministic(self):
        assert encode_event(sample_event()) == encode_event(sample_event())

    def test_prior_stamp_is_ignored_when_restamping(self):
        stamped = json.loads(encode_event(sample_event()))
        assert encode_event(stamped) == encode_event(sample_event())

    def test_any_field_change_breaks_verification(self):
        event = json.loads(encode_event(sample_event()))
        event["dur_s"] = 99.0
        assert not verify_event(event)

    def test_missing_stamp_fails_verification(self):
        assert not verify_event(sample_event())


class TestReadEvents:
    def write(self, path, lines):
        atomic_write(path, ("\n".join(lines) + "\n").encode())

    def test_reads_every_line(self, tmp_path):
        path = tmp_path / "events-h-1-0.jsonl"
        self.write(
            path,
            [
                encode_event(sample_event(id=1, parent=None)),
                encode_event(sample_event(id=2)),
            ],
        )
        events = read_events(path)
        assert [event["id"] for event in events] == [1, 2]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "events-h-1-0.jsonl"
        self.write(path, [encode_event(sample_event()), ""])
        assert len(read_events(path)) == 1

    def test_torn_line_refuses_whole_file(self, tmp_path):
        path = tmp_path / "events-h-1-0.jsonl"
        line = encode_event(sample_event())
        # A crash mid-write leaves a truncated final line.
        self.write(path, [line, line[: len(line) // 2]])
        with pytest.raises(TelemetryReadError, match="torn"):
            read_events(path)

    def test_tampered_line_refuses_whole_file(self, tmp_path):
        path = tmp_path / "events-h-1-0.jsonl"
        event = json.loads(encode_event(sample_event()))
        event["dur_s"] = 1e9  # edited after stamping
        self.write(path, [json.dumps(event)])
        with pytest.raises(TelemetryReadError, match="digest mismatch"):
            read_events(path)

    def test_wrong_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "events-h-1-0.jsonl"
        self.write(path, [encode_event(sample_event(v=99))])
        with pytest.raises(TelemetryReadError, match="schema"):
            read_events(path)

    def test_non_object_line_is_refused(self, tmp_path):
        path = tmp_path / "events-h-1-0.jsonl"
        self.write(path, ['["not", "an", "object"]'])
        with pytest.raises(TelemetryReadError):
            read_events(path)


class TestReadEventsDir:
    def test_missing_directory_is_an_error(self, tmp_path):
        with pytest.raises(TelemetryReadError, match="no telemetry"):
            read_events_dir(tmp_path / "absent")

    def test_merges_files_in_sorted_order(self, tmp_path):
        for token, span in (("b", 2), ("a", 1)):
            atomic_write(
                tmp_path / f"events-h-1-{token}.jsonl",
                (encode_event(sample_event(id=span)) + "\n").encode(),
            )
        events = read_events_dir(tmp_path)
        assert [event["id"] for event in events] == [1, 2]

    def test_ignores_unrelated_and_temp_files(self, tmp_path):
        atomic_write(
            tmp_path / "events-h-1-0.jsonl",
            (encode_event(sample_event()) + "\n").encode(),
        )
        (tmp_path / ".events-h-9-9.jsonl.tmp123").write_text("garbage")
        (tmp_path / "notes.txt").write_text("not events")
        assert len(read_events_dir(tmp_path)) == 1
