"""Tests for cross-store comparison and regression verdicts."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.compare import (
    compare_stores,
    format_compare_table,
)
from repro.analysis.series import cells_from_store
from repro.experiments.store import ResultStore
from repro.sweeps.aggregate import merge_stores


@pytest.fixture()
def regressed_store(warm_store, tmp_path):
    """A copy of the warm store with sqlb/captive response times +50 %.

    The perturbed results are written through the normal store ``put``
    under identical keys, so the copy is indistinguishable from a store
    produced by a genuinely slower engine build.
    """
    root = tmp_path / "regressed"
    merge_stores([warm_store.root], root)
    store = ResultStore(root)
    cells, _ = cells_from_store(root)
    cell = next(
        c
        for c in cells
        if c.scenario == "captive_fixed_80" and c.method == "sqlb"
    )
    for seed in cell.seeds:
        result = store.get(cell.config, cell.method, seed)
        worse = dataclasses.replace(
            result,
            response_time_post_warmup=(
                result.response_time_post_warmup * 1.5
            ),
        )
        store.put(worse, method=cell.method)
    return root


class TestCompareStores:
    def test_store_vs_itself_is_clean(self, warm_store):
        report = compare_stores(warm_store.root, warm_store.root)
        assert report.ok
        assert report.regressions == ()
        assert report.only_in_a == report.only_in_b == ()
        # Every shared cell × metric got a verdict.
        cells, _ = cells_from_store(warm_store.root)
        assert len(report.verdicts) == len(cells) * 4

    def test_injected_regression_is_flagged(
        self, warm_store, regressed_store
    ):
        report = compare_stores(warm_store.root, regressed_store)
        assert not report.ok
        flagged = {
            (v.scenario, v.method, v.metric)
            for v in report.regressions
        }
        assert (
            "captive_fixed_80",
            "sqlb",
            "response_time_post_warmup",
        ) in flagged
        [verdict] = [
            v
            for v in report.regressions
            if v.metric == "response_time_post_warmup"
        ]
        assert verdict.relative_worsening == pytest.approx(0.5)
        assert verdict.threshold == pytest.approx(0.30)

    def test_direction_matters_an_improvement_is_ok(
        self, warm_store, regressed_store
    ):
        # Swapped operands: B is *faster* than A, which is never a
        # regression no matter how large the delta.
        report = compare_stores(regressed_store, warm_store.root)
        assert report.ok

    def test_per_metric_threshold_override(
        self, warm_store, regressed_store
    ):
        report = compare_stores(
            warm_store.root,
            regressed_store,
            thresholds={"response_time_post_warmup": 0.60},
        )
        assert report.ok  # +50 % sits under the raised gate
        report = compare_stores(
            warm_store.root,
            regressed_store,
            thresholds={"response_time_post_warmup": 0.10},
        )
        assert not report.ok

    def test_threshold_for_uncompared_metric_is_refused(
        self, warm_store
    ):
        with pytest.raises(ValueError, match="not being compared"):
            compare_stores(
                warm_store.root,
                warm_store.root,
                metrics=("response_time_post_warmup",),
                thresholds={"provider_satisfaction": 0.1},
            )

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -1.0]
    )
    @pytest.mark.parametrize("where", ["default", "per-metric"])
    def test_a_threshold_that_cannot_gate_is_refused_before_reading(
        self, warm_store, regressed_store, monkeypatch, value, where
    ):
        if where == "default":
            kwargs = {"default_threshold": value}
            name = "default_threshold"
        else:
            kwargs = {"thresholds": {"response_time_post_warmup": value}}
            name = "thresholds['response_time_post_warmup']"
        monkeypatch.setattr(
            "repro.analysis.compare.cells_from_store",
            lambda root: pytest.fail("a store was read"),
        )
        with pytest.raises(ValueError) as error:
            compare_stores(warm_store.root, regressed_store, **kwargs)
        assert f"compare_stores.{name} must be non-negative" in str(
            error.value
        )

    def test_a_zero_threshold_flags_any_worsening(
        self, warm_store, regressed_store
    ):
        report = compare_stores(
            warm_store.root, regressed_store, default_threshold=0.0
        )
        assert not report.ok

    def test_disjoint_cells_are_reported_not_failed(
        self, warm_store, tmp_path
    ):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(warm_store.root, partial)
        # Drop one cell from B's manifests by rewriting them.
        manifest_dir = partial / "manifests"
        for path in manifest_dir.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["jobs"] = [
                job
                for job in payload["jobs"]
                if job["method"] != "capacity"
            ]
            path.write_text(json.dumps(payload))
        report = compare_stores(warm_store.root, partial)
        assert report.ok
        assert all(cell[1] == "capacity" for cell in report.only_in_a)
        assert report.only_in_b == ()

    def test_payload_is_strict_json(
        self, warm_store, regressed_store
    ):
        report = compare_stores(warm_store.root, regressed_store)
        text = json.dumps(report.payload(), allow_nan=False)
        parsed = json.loads(text)
        assert parsed["ok"] is False
        assert parsed["regressions"]

    def test_table_names_the_verdict(
        self, warm_store, regressed_store
    ):
        table = format_compare_table(
            compare_stores(warm_store.root, regressed_store)
        )
        assert "REGRESSION" in table
        assert table.splitlines()[-1].startswith("verdict: 1 regression")


class TestCompareCli:
    def test_exit_nonzero_on_regression(
        self, warm_store, regressed_store, capsys
    ):
        from repro.cli import main

        assert (
            main(
                [
                    "analyze",
                    "compare",
                    str(warm_store.root),
                    str(warm_store.root),
                ]
            )
            == 0
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "analyze",
                    "compare",
                    str(warm_store.root),
                    str(regressed_store),
                ]
            )
        assert excinfo.value.code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_json_flag_emits_payload(self, warm_store, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "analyze",
                    "compare",
                    str(warm_store.root),
                    str(warm_store.root),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True


class TestPairingAndEmptyGates:
    def test_nan_on_one_side_drops_the_seed_from_both_means(
        self, warm_store, tmp_path
    ):
        """A seed whose metric is NaN on one side must not skew the
        other side's mean (the paired-seed contract)."""
        root = tmp_path / "nan-side"
        merge_stores([warm_store.root], root)
        store = ResultStore(root)
        cells, _ = cells_from_store(root)
        cell = next(
            c
            for c in cells
            if c.scenario == "captive_fixed_80" and c.method == "sqlb"
        )
        poisoned_seed = cell.seeds[0]
        result = store.get(cell.config, cell.method, poisoned_seed)
        store.put(
            dataclasses.replace(
                result, response_time_post_warmup=float("nan")
            ),
            method=cell.method,
        )
        report = compare_stores(
            warm_store.root,
            root,
            metrics=("response_time_post_warmup",),
        )
        verdict = next(
            v
            for v in report.verdicts
            if (v.scenario, v.method) == (cell.scenario, cell.method)
        )
        assert poisoned_seed not in verdict.seeds
        assert set(verdict.seeds) == set(cell.seeds) - {poisoned_seed}
        # Identical on the remaining paired seeds: clean verdict.
        assert verdict.status == "ok"
        assert verdict.mean_a == pytest.approx(verdict.mean_b)

    def test_cli_refuses_stores_with_no_comparable_cells(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        empty_a = tmp_path / "empty-a"
        empty_b = tmp_path / "empty-b"
        empty_a.mkdir()
        empty_b.mkdir()
        with pytest.raises(SystemExit, match="no comparable cells"):
            main(["analyze", "compare", str(empty_a), str(empty_b)])

    def test_cli_refuses_an_all_incomparable_comparison(
        self, warm_store, tmp_path
    ):
        """Two stores swept with disjoint seed sets share cells but
        zero paired seeds — the gate must refuse, not pass."""
        import shutil

        from repro.cli import main

        disjoint = tmp_path / "disjoint-seeds"
        shutil.copytree(warm_store.root, disjoint)
        for path in (disjoint / "manifests").glob("*.json"):
            payload = json.loads(path.read_text())
            for job in payload["jobs"]:
                job["seed"] = int(job["seed"]) + 1000
            path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="incomparable"):
            main(
                [
                    "analyze",
                    "compare",
                    str(warm_store.root),
                    str(disjoint),
                ]
            )
