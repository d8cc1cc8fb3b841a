"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.audit.recorder import AUDIT_DIR_ENV, configure_audit
from repro.cli import build_parser, main, resolve_seeds
from repro.experiments.executor import (
    get_default_executor,
    set_default_executor,
)
from repro.experiments.harness import DEFAULT_SEEDS, PAPER_SEEDS
from repro.telemetry.registry import TELEMETRY_DIR_ENV, configure_telemetry


@pytest.fixture(autouse=True)
def _reset_default_executor(monkeypatch):
    """CLI commands install default executors (and, via --telemetry /
    --audit, process-wide registries plus their environment knobs);
    never leak any of them into the next test."""
    monkeypatch.delenv(TELEMETRY_DIR_ENV, raising=False)
    monkeypatch.delenv(AUDIT_DIR_ENV, raising=False)
    yield
    set_default_executor(None)
    configure_telemetry(enabled=False)
    configure_audit(None)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "sqlb"
        assert args.workload == 0.8
        assert not args.autonomous

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "oracle"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])

    def test_figure_seeds_accept_paper_sugar(self):
        args = build_parser().parse_args(["figure", "4a", "--seeds", "paper"])
        assert resolve_seeds(args.seeds) == PAPER_SEEDS
        args = build_parser().parse_args(
            ["figure", "4a", "--seeds", "7", "default"]
        )
        assert resolve_seeds(args.seeds) == (7,) + DEFAULT_SEEDS

    def test_seed_sugar_deduplicates_preserving_order(self):
        args = build_parser().parse_args(
            ["figure", "4a", "--seeds", "11", "paper"]
        )
        assert resolve_seeds(args.seeds) == PAPER_SEEDS

    def test_rejects_garbage_seeds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "4a", "--seeds", "many"])

    def test_sweep_run_defaults_and_shard(self):
        args = build_parser().parse_args(["sweep", "run", "--shard", "2/4"])
        assert args.sweep_command == "run"
        assert args.shard == (2, 4)
        assert args.scale == "scaled"
        assert "captive_ramp" in args.scenarios
        assert resolve_seeds(args.seeds) == DEFAULT_SEEDS

    @pytest.mark.parametrize("shard", ["4/4", "-1/2", "1", "a/b", "1/0"])
    def test_rejects_bad_shards(self, shard):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "run", "--shard", shard])

    def test_sweep_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "run", "--scenarios", "warp_drive"]
            )

    def test_sweep_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])


class TestCommands:
    def test_methods_lists_paper_methods(self, capsys):
        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for name in ("sqlb (paper)", "capacity (paper)", "mariposa (paper)"):
            assert name in output
        assert "knbest" in output

    def test_run_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--method",
                "capacity",
                "--duration",
                "60",
                "--workload",
                "0.5",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "method: capacity" in output
        assert "response time" in output

    def test_run_refuses_a_horizon_without_a_sample(self):
        # The scaled environment samples every 30 s.
        with pytest.raises(
            SystemExit, match="--duration 29 .*sample interval is 30 s"
        ):
            main(["run", "--duration", "29", "--no-cache"])
        assert get_default_executor().simulations_run == 0

    def test_run_autonomous_reports_departures(self, capsys):
        main(
            [
                "run",
                "--duration",
                "60",
                "--autonomous",
                "--method",
                "sqlb",
            ]
        )
        assert "departures:" in capsys.readouterr().out


SWEEP_FLAGS = [
    "--scenarios",
    "captive_fixed_80",
    "--methods",
    "sqlb",
    "capacity",
    "--seeds",
    "1",
    "--scale",
    "tiny",
    "--name",
    "cli-e2e",
]


class TestSweepCommands:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_sweep_run_requires_a_store(self):
        with pytest.raises(SystemExit, match="cache-dir"):
            main(["sweep", "run", *SWEEP_FLAGS, "--no-cache"])

    def test_sweep_status_requires_a_store(self):
        with pytest.raises(SystemExit, match="cache-dir"):
            main(["sweep", "status"])
        with pytest.raises(SystemExit, match="no-cache"):
            main(["sweep", "status", "--no-cache"])

    def test_sharded_run_matches_unsharded_report(self, tmp_path, capsys):
        """Acceptance: shard 0/2 + shard 1/2 into one cache dir, then
        report — identical to an unsharded run's report, and a warm
        re-run performs zero new simulations."""
        sharded = str(tmp_path / "sharded")
        reference = str(tmp_path / "reference")

        out0 = self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--shard", "0/2",
            "--cache-dir", sharded,
        )
        assert "simulated: 1" in out0
        out1 = self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--shard", "1/2",
            "--cache-dir", sharded,
        )
        assert "simulated: 1" in out1

        sharded_report = self._run(
            capsys, "sweep", "report", *SWEEP_FLAGS, "--cache-dir", sharded
        )
        self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--cache-dir", reference,
        )
        reference_report = self._run(
            capsys, "sweep", "report", *SWEEP_FLAGS, "--cache-dir", reference
        )
        assert sharded_report == reference_report
        assert "cli-e2e" in sharded_report

        # Warm re-run: the manifest records every job as a store hit.
        warm = self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--cache-dir", sharded,
        )
        assert "simulated: 0" in warm
        assert "store hits: 2" in warm
        assert "zero new simulations" in warm

        status = self._run(
            capsys, "sweep", "status", "--cache-dir", sharded
        )
        assert "cli-e2e" in status
        # Shards 0/2, 1/2 and the warm 0/1 run each left a manifest.
        assert len(status.strip().splitlines()) == 1 + 3

    def test_sweep_merge_unions_two_stores(self, tmp_path, capsys):
        machine_a = str(tmp_path / "a")
        machine_b = str(tmp_path / "b")
        merged = str(tmp_path / "merged")
        self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--shard", "0/2",
            "--cache-dir", machine_a,
        )
        self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--shard", "1/2",
            "--cache-dir", machine_b,
        )
        out = self._run(
            capsys,
            "sweep", "merge", machine_a, machine_b, "--into", merged,
        )
        assert "2 entries copied" in out
        assert "2 manifests copied" in out

        # The merged store satisfies the warm-run acceptance check.
        warm = self._run(
            capsys,
            "sweep", "run", *SWEEP_FLAGS, "--cache-dir", merged,
        )
        assert "simulated: 0" in warm

    def test_sweep_status_reports_empty_store(self, tmp_path, capsys):
        out = self._run(
            capsys, "sweep", "status", "--cache-dir", str(tmp_path)
        )
        assert "no sweep manifests" in out


class TestTraceCommands:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_record_requires_a_store(self, tmp_path):
        with pytest.raises(SystemExit, match="result store"):
            main([
                "trace", "record", "--out", str(tmp_path / "t.json"),
                "--scenario", "captive_fixed_80", "--no-cache",
            ])

    def test_record_replay_compare_round_trip(self, tmp_path, capsys):
        """Acceptance: record → replay two methods (recording method
        byte-identical) → paired compare across the two stores."""
        trace = str(tmp_path / "trace.json")
        store_a = str(tmp_path / "a")
        store_b = str(tmp_path / "b")

        recorded = self._run(
            capsys,
            "trace", "record", "--out", trace,
            "--scenario", "captive_fixed_80", "--scale", "tiny",
            "--method", "sqlb", "--seed", "3",
            "--cache-dir", store_a,
        )
        assert f"trace written to {trace}" in recorded
        assert "issued" in recorded

        replayed = self._run(
            capsys,
            "trace", "replay", "--trace", trace,
            "--methods", "sqlb", "capacity",
            "--cache-dir", store_b, "--workers", "1",
        )
        assert "byte-identical to the recording run" in replayed
        assert "capacity" in replayed

        # The replay manifest lets the analysis layer pair the stores
        # on the shared (scenario, recording-method) cell.
        compared = self._run(
            capsys, "analyze", "compare", store_a, store_b
        )
        assert "captive_fixed_80" in compared
        assert "sqlb" in compared

        # A warm re-replay performs zero new simulations.
        warm = self._run(
            capsys,
            "trace", "replay", "--trace", trace,
            "--methods", "sqlb", "capacity",
            "--cache-dir", store_b, "--workers", "1",
        )
        assert "simulated" not in warm.replace("store hit", "")
        assert warm.count("store hit") == 2

    def test_replay_against_wrong_scenario_fails_loudly(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "trace.json")
        self._run(
            capsys,
            "trace", "record", "--out", trace,
            "--scenario", "captive_fixed_80", "--scale", "tiny",
            "--method", "sqlb", "--seed", "3",
            "--cache-dir", str(tmp_path / "a"),
        )
        with pytest.raises(SystemExit, match="did not reproduce"):
            main([
                "trace", "replay", "--trace", trace,
                "--scenario", "autonomous_full",
                "--methods", "sqlb",
                "--cache-dir", str(tmp_path / "b"), "--workers", "1",
            ])


#: Every float-valued flag, after the arguments its command needs.
NUMERIC_FLAGS = [
    ["run", "--workload"],
    ["run", "--duration"],
    ["queue", "init", "--queue-dir", "q", "--ci-threshold"],
    ["queue", "work", "--queue-dir", "q", "--ttl"],
    ["queue", "work", "--queue-dir", "q", "--poll"],
    ["queue", "top", "--queue-dir", "q", "--interval"],
    ["queue", "gc", "--queue-dir", "q", "--temp-age"],
    ["queue", "fsck", "--queue-dir", "q", "--temp-age"],
    ["queue", "fleet", "--queue-dir", "q", "--backoff"],
    ["queue", "fleet", "--queue-dir", "q", "--ttl"],
    ["analyze", "compare", "a", "b", "--default-threshold"],
    ["analyze", "compare", "a", "b", "--threshold=response_time_post_warmup"],
]


class TestQueueParser:
    def test_init_defaults(self):
        args = build_parser().parse_args(
            ["queue", "init", "--queue-dir", "q"]
        )
        assert args.queue_command == "init"
        assert not args.adaptive
        assert args.ci_threshold == 0.5
        assert args.max_seeds == len(PAPER_SEEDS)
        assert args.seed_batch == 2
        assert args.expiry_clock == "wall"
        assert args.max_attempts == 3

    def test_work_defaults(self):
        args = build_parser().parse_args(
            ["queue", "work", "--queue-dir", "q"]
        )
        assert args.ttl == 60.0
        assert args.poll == 0.5
        assert args.max_jobs is None
        assert not args.wait
        assert args.owner is None

    def test_queue_dir_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue", "work"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["queue", "work", "--queue-dir", "q", "--ttl", "0"],
            ["queue", "work", "--queue-dir", "q", "--ttl", "-5"],
            ["queue", "work", "--queue-dir", "q", "--max-jobs", "0"],
            ["queue", "init", "--queue-dir", "q", "--ci-threshold", "-1"],
            ["queue", "init", "--queue-dir", "q", "--seed-batch", "0"],
            ["queue", "init", "--queue-dir", "q", "--max-attempts", "0"],
            ["queue", "init", "--queue-dir", "q", "--seeds", "-5"],
            ["sweep", "run", "--seeds", "1.5"],
            ["run", "--seed=-1"],
            ["trace", "record", "--out", "t.json", "--seed=-1"],
            *(
                [*command, f"{flag}={value}"]
                for *command, flag in NUMERIC_FLAGS
                for value in ("nan", "inf", "-inf")
            ),
        ],
    )
    def test_rejects_non_positive_knobs(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(flags)
        assert exit_info.value.code == 2
        flag = [token for token in flags if token.startswith("--")][-1]
        assert f"argument {flag.partition('=')[0]}:" in capsys.readouterr().err

    def test_sweep_status_json_flag(self):
        args = build_parser().parse_args(["sweep", "status", "--json"])
        assert args.json


QUEUE_SPEC_FLAGS = [
    "--scenarios",
    "captive_fixed_80",
    "--methods",
    "sqlb",
    "capacity",
    "--seeds",
    "1",
    "--scale",
    "tiny",
    "--name",
    "queue-e2e",
]


class TestQueueCommands:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_work_requires_a_store(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        with pytest.raises(SystemExit, match="cache-dir"):
            main(
                ["queue", "work", "--queue-dir", queue_dir, "--no-cache"]
            )

    def test_status_and_top_without_a_heartbeat_deadline(
        self, tmp_path, capsys
    ):
        """A heartbeat that lost its deadline has no deadline or age:
        null in strictly parseable JSON, ``-`` in the tables."""
        import json as jsonlib

        from repro.scheduler.queue import WorkQueue

        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        queue = WorkQueue(queue_dir)
        queue.heartbeat("lost", 30.0)
        path = queue.heartbeats_dir / "lost.json"
        record = jsonlib.loads(path.read_text())
        del record["deadline"]
        path.write_text(jsonlib.dumps(record))

        def refuse(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        status = jsonlib.loads(
            self._run(
                capsys, "queue", "status", "--queue-dir", queue_dir,
                "--no-cache", "--json",
            ),
            parse_constant=refuse,
        )
        frame = jsonlib.loads(
            self._run(
                capsys, "queue", "top", "--queue-dir", queue_dir, "--json"
            ),
            parse_constant=refuse,
        )
        for payload in (status, frame["status"]):
            [worker] = payload["workers"]
            assert worker["owner"] == "lost" and not worker["alive"]
            assert worker["deadline_in_s"] is None
            assert worker["heartbeat_age_s"] is None
        table = self._run(
            capsys, "queue", "status", "--queue-dir", queue_dir, "--no-cache"
        )
        [row] = [line for line in table.splitlines() if line.startswith("lost")]
        assert row.split() == ["lost", "no", "0", "-"]
        top = self._run(
            capsys, "queue", "top", "--queue-dir", queue_dir, "--once"
        )
        [row] = [line for line in top.splitlines() if line.startswith("lost")]
        assert row.split()[:4] == ["lost", "NO", "0", "-"]

    def test_commands_reject_a_missing_queue(self, tmp_path):
        for command in (
            ["queue", "status", "--queue-dir", str(tmp_path / "none")],
            ["queue", "report", "--queue-dir", str(tmp_path / "none"),
             "--cache-dir", str(tmp_path / "store")],
        ):
            with pytest.raises(SystemExit, match="queue init"):
                main(command)

    def test_report_requires_a_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no-cache"):
            main(
                ["queue", "report", "--queue-dir", str(tmp_path / "q"),
                 "--no-cache"]
            )
        with pytest.raises(SystemExit, match="cache-dir"):
            main(
                ["queue", "report", "--queue-dir", str(tmp_path / "q")]
            )

    def test_init_refuses_a_second_init(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        with pytest.raises(SystemExit, match="already initialised"):
            main(
                ["queue", "init", "--queue-dir", queue_dir,
                 *QUEUE_SPEC_FLAGS]
            )

    @pytest.mark.parametrize("max_seeds", ["2", "3"])
    def test_adaptive_max_seeds_needs_headroom(self, tmp_path, max_seeds):
        """Below *or equal to* the initial seed count, adaptive seeding
        could never add a seed — init must refuse, not no-op."""
        with pytest.raises(SystemExit, match="headroom"):
            main(
                ["queue", "init", "--queue-dir", str(tmp_path / "q"),
                 "--scenarios", "captive_fixed_80", "--methods", "sqlb",
                 "--seeds", "1", "2", "3", "--scale", "tiny",
                 "--adaptive", "--max-seeds", max_seeds]
            )

    def test_init_work_status_report_round_trip(self, tmp_path, capsys):
        """End-to-end: init, drain with two sequential bounded workers,
        JSON status, report — and the queue-produced store satisfies the
        static sweep report byte-identically."""
        import json as jsonlib

        queue_dir = str(tmp_path / "q")
        store = str(tmp_path / "store")

        out = self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        assert "jobs enqueued: 2" in out

        first = self._run(
            capsys, "queue", "work", "--queue-dir", queue_dir,
            "--cache-dir", store, "--max-jobs", "1", "--owner", "one",
        )
        assert "processed: 1" in first
        second = self._run(
            capsys, "queue", "work", "--queue-dir", queue_dir,
            "--cache-dir", store, "--owner", "two",
        )
        assert "processed: 1" in second

        status = jsonlib.loads(
            self._run(
                capsys, "queue", "status", "--queue-dir", queue_dir,
                "--cache-dir", store, "--json",
            )
        )
        assert status["drained"]
        assert status["counts"]["done"] == 2
        assert sum(m["jobs"] for m in status["manifests"]) == 2
        assert (status["expiry_clock"], status["max_attempts"]) == (
            "wall",
            3,
        )

        report = self._run(
            capsys, "queue", "report", "--queue-dir", queue_dir,
            "--cache-dir", store,
        )
        assert "queue-e2e" in report
        assert "captive_fixed_80" in report

        # The store the queue produced answers the static sweep report
        # with zero new simulations and identical bytes.
        queue_sweep_report = self._run(
            capsys, "sweep", "report", *QUEUE_SPEC_FLAGS,
            "--cache-dir", store,
        )
        reference = str(tmp_path / "reference")
        self._run(
            capsys, "sweep", "run", *QUEUE_SPEC_FLAGS,
            "--cache-dir", reference,
        )
        reference_report = self._run(
            capsys, "sweep", "report", *QUEUE_SPEC_FLAGS,
            "--cache-dir", reference,
        )
        assert queue_sweep_report == reference_report

        # sweep status --json over the queue store: the shared parser
        # sees the two worker manifests.
        sweep_status = jsonlib.loads(
            self._run(
                capsys, "sweep", "status", "--cache-dir", store, "--json"
            )
        )
        workers = {m["worker"] for m in sweep_status["manifests"]}
        assert workers == {"one", "two"}


class TestAnalyzeParser:
    def test_series_requires_a_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "series"])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["analyze", "figures"])
        assert args.analyze_command == "figures"
        assert args.formats == ["json", "svg"]
        assert args.only is None

    def test_figures_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "figures", "--formats", "pdf"]
            )

    def test_compare_threshold_syntax(self):
        args = build_parser().parse_args(
            [
                "analyze", "compare", "a", "b",
                "--threshold", "response_time_post_warmup=0.5",
            ]
        )
        assert args.threshold == [("response_time_post_warmup", 0.5)]
        for bad in ("qps=0.5", "response_time_post_warmup", "x=-1"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["analyze", "compare", "a", "b", "--threshold", bad]
                )

    def test_compare_gates_share_one_bound(self, capsys):
        """Both gates take any non-negative number, zero included."""
        args = build_parser().parse_args(
            [
                "analyze", "compare", "a", "b", "--default-threshold", "0",
                "--threshold", "response_time_post_warmup=0",
            ]
        )
        assert args.default_threshold == 0.0
        assert args.threshold == [("response_time_post_warmup", 0.0)]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["analyze", "compare", "a", "b", "--default-threshold=-1"]
            )
        assert exit_info.value.code == 2
        assert "argument --default-threshold:" in capsys.readouterr().err

    def test_queue_init_accepts_ci_metric(self):
        args = build_parser().parse_args(
            [
                "queue", "init", "--queue-dir", "q", "--adaptive",
                "--ci-metric", "departure_fraction",
            ]
        )
        assert args.ci_metric == "departure_fraction"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "queue", "init", "--queue-dir", "q",
                    "--ci-metric", "wall_clock",
                ]
            )

    def test_queue_init_accepts_expiry_clock(self):
        args = build_parser().parse_args(
            [
                "queue", "init", "--queue-dir", "q",
                "--expiry-clock", "mtime",
            ]
        )
        assert args.expiry_clock == "mtime"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "queue", "init", "--queue-dir", "q",
                    "--expiry-clock", "sundial",
                ]
            )
        # Recorded once at init: no per-process flag to disagree with.
        for command in ("work", "status", "top", "fsck", "fleet"):
            for flag in (["--expiry-clock", "mtime"], ["--max-attempts", "2"]):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(
                        ["queue", command, "--queue-dir", "q", *flag]
                    )


class TestAnalyzeCommands:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    @pytest.fixture
    def store(self, tmp_path, capsys) -> str:
        store = str(tmp_path / "store")
        self._run(
            capsys, "sweep", "run", *QUEUE_SPEC_FLAGS,
            "--cache-dir", store,
        )
        return store

    def test_analyze_requires_a_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="store"):
            main(["analyze", "series", "--series", "response_time_mean"])
        with pytest.raises(SystemExit, match="no result store"):
            main(
                [
                    "analyze", "figures",
                    "--store", str(tmp_path / "nope"),
                ]
            )

    def test_series_table_and_json(self, store, capsys):
        table = self._run(
            capsys, "analyze", "series", "--store", store,
            "--series", "response_time_mean", "--methods", "sqlb",
        )
        assert "captive_fixed_80 / sqlb / response_time_mean" in table
        import json as jsonlib

        payload = jsonlib.loads(
            self._run(
                capsys, "analyze", "series", "--store", store,
                "--series", "response_time_mean", "--json",
            )
        )
        assert payload["series"] == "response_time_mean"
        assert {cell["method"] for cell in payload["cells"]} == {
            "sqlb", "capacity",
        }

    def test_series_refuses_an_empty_filter(self, store):
        with pytest.raises(SystemExit, match="no matching cells"):
            main(
                [
                    "analyze", "series", "--store", store,
                    "--series", "response_time_mean",
                    "--scenarios", "diurnal",
                ]
            )

    def test_figures_renders_the_catalog(self, store, tmp_path, capsys):
        out = str(tmp_path / "figs")
        output = self._run(
            capsys, "analyze", "figures", "--store", store,
            "--out", out, "--formats", "json",
        )
        assert "rendered 7 file(s)" in output
        from pathlib import Path as PathLib

        assert (PathLib(out) / "response_time.json").is_file()

    def test_queue_report_figures_mid_drain(self, tmp_path, capsys):
        """--figures must work on a partially drained queue."""
        queue_dir = str(tmp_path / "q")
        store = str(tmp_path / "qstore")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        # Drain exactly one of the two jobs: partial by construction.
        self._run(
            capsys, "queue", "work", "--queue-dir", queue_dir,
            "--cache-dir", store, "--max-jobs", "1",
        )
        out = str(tmp_path / "partial-figs")
        report = self._run(
            capsys, "queue", "report", "--queue-dir", queue_dir,
            "--cache-dir", store, "--figures",
            "--figures-out", out, "--formats", "json",
        )
        assert "figures:" in report
        from pathlib import Path as PathLib

        written = sorted(p.name for p in PathLib(out).glob("*.json"))
        # Single-method cells: the delta figure has no comparator and
        # is skipped; the series/departure figures render.
        assert "response_time.json" in written


class TestQueueMaintenanceCli:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_gc_and_retry_round_trip(self, tmp_path, capsys):
        import json as jsonlib
        import os as oslib
        import time as timelib

        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS, "--max-attempts", "1",
        )
        # Plant an old orphaned temp file.
        stale = tmp_path / "q" / "pending" / ".ticket.orphan"
        stale.write_text("{}")
        old = timelib.time() - 7200.0
        oslib.utime(stale, (old, old))

        found = jsonlib.loads(
            self._run(
                capsys, "queue", "gc", "--queue-dir", queue_dir,
                "--no-cache", "--json",
            )
        )
        assert found["temp_files"] == [str(stale)]
        assert found["pruned"] is False

        self._run(
            capsys, "queue", "gc", "--queue-dir", queue_dir,
            "--no-cache", "--prune",
        )
        assert not stale.exists()

        # Park an error, then retry it through the CLI.
        from repro.scheduler import WorkQueue

        queue = WorkQueue(queue_dir)
        lease = queue.claim("cli-worker", 30.0)
        assert queue.fail(lease, "boom") == "error"

        listing = self._run(
            capsys, "queue", "retry", "--queue-dir", queue_dir,
            "--list",
        )
        assert lease.job.id in listing
        retried = jsonlib.loads(
            self._run(
                capsys, "queue", "retry", "--queue-dir", queue_dir,
                "--json",
            )
        )
        assert retried["requeued"] == [lease.job.id]
        assert queue.counts().pending == 2  # both cells runnable again


class TestTelemetryCli:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_report_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="no telemetry"):
            main(["telemetry", "report", str(tmp_path / "absent")])

    def test_run_with_telemetry_then_report(self, tmp_path, capsys):
        import json as jsonlib

        events = str(tmp_path / "events")
        self._run(
            capsys, "run", "--duration", "30", "--no-cache",
            "--telemetry", events,
        )
        text = self._run(capsys, "telemetry", "report", events)
        assert "phase breakdown:" in text
        assert "candidate cache" in text
        payload = jsonlib.loads(
            self._run(capsys, "telemetry", "report", events, "--json")
        )
        assert payload["runs"] == 1
        assert payload["cells"] == 1
        phase_names = [row["phase"] for row in payload["phases"]]
        assert phase_names[0] == "arrival"
        assert payload["counters"]["executor.jobs"] == 1

    def test_queue_drain_with_telemetry_then_top(self, tmp_path, capsys):
        import json as jsonlib

        queue_dir = str(tmp_path / "q")
        store = str(tmp_path / "store")
        events = str(tmp_path / "events")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        self._run(
            capsys, "queue", "work", "--queue-dir", queue_dir,
            "--cache-dir", store, "--telemetry", events,
            "--owner", "cli-w",
        )
        report = self._run(capsys, "telemetry", "report", events)
        assert "queue.claim" in report
        assert "queue.ack" in report

        top = self._run(
            capsys, "queue", "top", "--queue-dir", queue_dir, "--once"
        )
        assert "[drained]" in top
        assert "cli-w" in top

        frame = jsonlib.loads(
            self._run(
                capsys, "queue", "top", "--queue-dir", queue_dir, "--json"
            )
        )
        [worker] = frame["status"]["workers"]
        assert worker["retired"]
        assert worker["counters"]["processed"] == 2

        status = jsonlib.loads(
            self._run(
                capsys, "queue", "status", "--queue-dir", queue_dir,
                "--cache-dir", store, "--json",
            )
        )
        assert status["drained"]


class TestReliabilityCommands:
    """CLI surface of the reliability stack: fsck, fleet, store verify."""

    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_fsck_clean_queue_exits_zero(self, tmp_path, capsys):
        import json as jsonlib

        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        out = self._run(
            capsys, "queue", "fsck", "--queue-dir", queue_dir,
            "--no-cache",
        )
        assert "clean" in out
        frame = jsonlib.loads(
            self._run(
                capsys, "queue", "fsck", "--queue-dir", queue_dir,
                "--no-cache", "--json",
            )
        )
        assert frame["clean"] is True

    def test_fsck_exits_nonzero_on_unrepaired(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        # Tear a ticket: detectable, repairable — but without --repair
        # the command must fail loudly.
        from repro.scheduler.queue import WorkQueue

        queue = WorkQueue(tmp_path / "q")
        next(iter(queue.pending_dir.iterdir())).write_text("{torn")
        with pytest.raises(SystemExit) as excinfo:
            main(["queue", "fsck", "--queue-dir", queue_dir, "--no-cache"])
        assert excinfo.value.code == 1
        capsys.readouterr()
        out = self._run(
            capsys, "queue", "fsck", "--queue-dir", queue_dir,
            "--no-cache", "--repair",
        )
        assert "repaired" in out
        # Now clean.
        self._run(
            capsys, "queue", "fsck", "--queue-dir", queue_dir, "--no-cache"
        )

    def test_store_verify_round_trip(self, tmp_path, capsys):
        from repro.experiments.store import ResultStore
        from repro.simulation.config import tiny_config
        from repro.simulation.engine import run_simulation

        store_dir = str(tmp_path / "store")
        ResultStore(store_dir).put(
            run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)
        )
        out = self._run(
            capsys, "store", "verify", "--cache-dir", store_dir
        )
        assert "clean" in out
        # Orphan a payload half: verify must fail without --prune and
        # recover with it.
        from pathlib import Path

        npz = next(Path(store_dir).glob("*.npz"))
        npz.with_suffix(".json").unlink()
        # Aged past the litter rule's gate: a crashed put, not a live one.
        import os
        import time

        old = time.time() - 10_000.0
        os.utime(npz, (old, old))
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "verify", "--cache-dir", store_dir])
        assert excinfo.value.code == 1
        capsys.readouterr()
        self._run(
            capsys, "store", "verify", "--cache-dir", store_dir, "--prune"
        )
        self._run(capsys, "store", "verify", "--cache-dir", store_dir)

    def test_store_verify_leaves_a_put_in_flight_alone(self, tmp_path, capsys):
        """A fresh orphan payload is a live put between its two writes,
        as queue fsck judges it: listed, kept, and the store stays
        clean; the same file aged past the gate is crash litter."""
        import json as jsonlib
        import os
        import time

        from repro.experiments.store import ResultStore
        from repro.simulation.config import tiny_config
        from repro.simulation.engine import run_simulation

        store_dir = tmp_path / "store"
        key = ResultStore(store_dir).put(
            run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)
        )
        npz = store_dir / f"{key}.npz"
        (store_dir / f"{key}.json").unlink()
        out = self._run(capsys, "store", "verify", "--cache-dir", str(store_dir))
        assert f"(a put in flight, left alone): {key}" in out
        assert "store is clean" in out
        frame = jsonlib.loads(
            self._run(
                capsys, "store", "verify", "--cache-dir", str(store_dir),
                "--prune", "--json",
            )
        )
        assert frame["clean"] is True
        assert frame["orphan_npz"] == []
        assert frame["orphan_npz_in_flight"] == [key]
        assert frame["pruned_files"] == 0
        assert npz.exists()

        old = time.time() - 10_000.0
        os.utime(npz, (old, old))
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "verify", "--cache-dir", str(store_dir)])
        assert excinfo.value.code == 1
        assert f"orphan npz (interrupted put): {key}" in capsys.readouterr().out
        out = self._run(
            capsys, "store", "verify", "--cache-dir", str(store_dir), "--prune"
        )
        assert "pruned 1 file(s)" in out
        assert not npz.exists()
        self._run(capsys, "store", "verify", "--cache-dir", str(store_dir))

    def test_init_records_the_clock_and_budget_for_every_command(
        self, tmp_path, capsys
    ):
        """fsck and status read what init recorded: a one-attempt
        budget parks the uncovered lease fsck repairs."""
        import json as jsonlib

        from repro.scheduler.queue import WorkQueue

        queue_dir = str(tmp_path / "q")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS, "--expiry-clock", "mtime",
            "--max-attempts", "1",
        )
        queue = WorkQueue(queue_dir)
        lease = queue.claim("doomed", 30.0)
        queue.retire("doomed")  # the lease is no longer covered
        self._run(
            capsys, "queue", "fsck", "--queue-dir", queue_dir,
            "--no-cache", "--repair",
        )
        status = jsonlib.loads(
            self._run(
                capsys, "queue", "status", "--queue-dir", queue_dir,
                "--json",
            )
        )
        assert (status["expiry_clock"], status["max_attempts"]) == (
            "mtime",
            1,
        )
        assert status["counts"]["errors"] == 1
        [record] = queue.error_records()
        assert record["id"] == lease.job.id

    def test_store_verify_prune_from_a_host_ahead_keeps_a_fresh_payload(
        self, tmp_path, capsys, monkeypatch
    ):
        """Orphan ages are judged by the filesystem's clock: from a
        host two hours ahead, a live put's seconds-old payload is still
        in flight, listed and kept."""
        import time

        from repro.experiments.store import ResultStore
        from repro.simulation.config import tiny_config
        from repro.simulation.engine import run_simulation

        store_dir = tmp_path / "store"
        key = ResultStore(store_dir).put(
            run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)
        )
        (store_dir / f"{key}.json").unlink()
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 7200.0)
        out = self._run(
            capsys, "store", "verify", "--cache-dir", str(store_dir),
            "--prune",
        )
        assert f"(a put in flight, left alone): {key}" in out
        assert "store is clean" in out
        assert (store_dir / f"{key}.npz").exists()

    def test_store_verify_prunes_a_zero_byte_payload(self, tmp_path, capsys):
        """What a power loss after the rename leaves without durable
        writes is ``unreadable``, not a traceback, and --prune repairs
        it."""
        import json as jsonlib

        from repro.experiments.store import ResultStore
        from repro.simulation.config import tiny_config
        from repro.simulation.engine import run_simulation

        store_dir = tmp_path / "store"
        key = ResultStore(store_dir).put(
            run_simulation(tiny_config(duration=40.0), "sqlb", seed=3)
        )
        (store_dir / f"{key}.npz").write_bytes(b"")
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "verify", "--cache-dir", str(store_dir)])
        assert excinfo.value.code == 1
        assert f"unreadable entries: {key}" in capsys.readouterr().out
        frame = jsonlib.loads(
            self._run(
                capsys, "store", "verify", "--cache-dir", str(store_dir),
                "--prune", "--json",
            )
        )
        assert frame["unreadable"] == [key]
        assert frame["pruned_files"] == 2
        self._run(capsys, "store", "verify", "--cache-dir", str(store_dir))

    def test_fleet_drains_a_queue(self, tmp_path, capsys, monkeypatch):
        from pathlib import Path as _Path

        monkeypatch.setenv(
            "PYTHONPATH",
            str(_Path(__file__).resolve().parents[1] / "src"),
        )
        queue_dir = str(tmp_path / "q")
        store = str(tmp_path / "store")
        self._run(
            capsys, "queue", "init", "--queue-dir", queue_dir,
            *QUEUE_SPEC_FLAGS,
        )
        out = self._run(
            capsys, "queue", "fleet", "--queue-dir", queue_dir,
            "--cache-dir", store, "-n", "1", "--owner-prefix", "clifleet",
        )
        assert "drained" in out
        status = self._run(
            capsys, "queue", "status", "--queue-dir", queue_dir,
            "--cache-dir", store,
        )
        assert "drained" in status

    def test_fleet_validates_count(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["queue", "fleet", "--queue-dir", str(tmp_path / "q"),
                 "--no-cache", "-n", "0"]
            )


class TestAuditCli:
    def _run(self, capsys, *argv: str) -> str:
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def test_audited_run_then_report_explain_diff(self, tmp_path, capsys):
        import json as jsonlib

        audit_dir = str(tmp_path / "aud")
        store = str(tmp_path / "store")
        trace = str(tmp_path / "trace.json")
        self._run(
            capsys, "trace", "record", "--out", trace,
            "--scenario", "captive_fixed_80", "--scale", "tiny",
            "--seed", "3", "--cache-dir", store,
        )
        self._run(
            capsys, "trace", "replay", "--trace", trace,
            "--methods", "sqlb", "capacity",
            "--cache-dir", store, "--audit", audit_dir,
        )

        report = self._run(
            capsys, "audit", "report", audit_dir, "--method", "sqlb",
            "--json", str(tmp_path / "report.json"),
        )
        assert "audit report: method=sqlb seed=3" in report
        payload = jsonlib.loads((tmp_path / "report.json").read_text())
        assert payload["method"] == "sqlb"
        assert payload["decisions"] > 0
        # The --json export is deterministic: a double render of the
        # same shard is byte-identical.
        first = (tmp_path / "report.json").read_bytes()
        self._run(
            capsys, "audit", "report", audit_dir, "--method", "sqlb",
            "--json", str(tmp_path / "report.json"),
        )
        assert (tmp_path / "report.json").read_bytes() == first

        explain = self._run(
            capsys, "audit", "explain", audit_dir, "0", "--method", "sqlb"
        )
        assert "decision #0" in explain
        assert "chosen: provider" in explain

        diff = self._run(
            capsys, "audit", "diff", audit_dir, audit_dir,
            "--method-a", "sqlb", "--method-b", "capacity",
            "--json", str(tmp_path / "diff.json"),
        )
        assert "audit diff: sqlb vs capacity" in diff
        diff_payload = jsonlib.loads((tmp_path / "diff.json").read_text())
        assert diff_payload["paired"] > 0
        assert diff_payload["first_divergence"] is not None

    def test_report_on_empty_directory_is_an_error(self, tmp_path):
        (tmp_path / "aud").mkdir()
        with pytest.raises(SystemExit, match="no committed audit shard"):
            main(["audit", "report", str(tmp_path / "aud")])

    def test_ambiguous_directory_demands_method(self, tmp_path, capsys):
        audit_dir = str(tmp_path / "aud")
        store = str(tmp_path / "store")
        trace = str(tmp_path / "trace.json")
        self._run(
            capsys, "trace", "record", "--out", trace,
            "--scenario", "captive_fixed_80", "--scale", "tiny",
            "--seed", "3", "--cache-dir", store,
        )
        self._run(
            capsys, "trace", "replay", "--trace", trace,
            "--methods", "sqlb", "capacity",
            "--cache-dir", store, "--audit", audit_dir,
        )
        with pytest.raises(SystemExit, match="pass --method"):
            main(["audit", "report", audit_dir])
