"""Tests for the figure catalog: payloads, determinism, rendering."""

from __future__ import annotations

import json
import math
import shutil
import warnings

import numpy as np
import pytest

from repro.analysis.figures import (
    FIGURE_CATALOG,
    FigureSpec,
    available_figures,
    figure_payload,
    figure_payloads,
    matplotlib_available,
    method_color,
    method_order,
    payload_bytes,
    render_catalog,
)
from repro.analysis.metrics import get_metric
from repro.analysis.series import (
    cell_band,
    cell_scalar_map,
    cell_scalars,
    cells_from_store,
    jsonable,
)
from repro.experiments.harness import run_repeated
from repro.experiments.store import ResultStore, cache_key
from repro.simulation.engine import ENGINE_VERSION
from repro.sweeps.aggregate import ci_halfwidth

SERIES_FIGURES = tuple(
    spec.name for spec in FIGURE_CATALOG if spec.kind == "series"
)


def catalog_spec(name):
    return next(spec for spec in FIGURE_CATALOG if spec.name == name)


#: The two kinds the paper's figures add beside the catalog's three.
REASONS_SPEC = FigureSpec(
    name="reasons", title="Table 3", kind="reasons", ylabel="departed (%)"
)


def curve_spec(metric):
    return FigureSpec(
        name=metric, title=metric, kind="curve", ylabel="y", metric=metric
    )


def cell_runs(warm_store, cell):
    """One cell's results, read back through the harness."""
    return run_repeated(
        cell.config, cell.method, cell.seeds, executor=warm_store.executor
    )


class TestMethodColors:
    def test_paper_methods_take_the_first_slots(self):
        ordered = method_order(["capacity", "mariposa", "sqlb"])
        assert ordered[0] == "sqlb"  # paper registry order, not alpha

    def test_color_follows_the_method_name_globally(self):
        """The same method is the same colour regardless of which
        subset of methods a figure or a store happens to show."""
        from repro.allocation.registry import available_methods

        colors = {m: method_color(m) for m in available_methods()}
        # Distinct slots for the paper's three methods.
        paper_colors = [colors["sqlb"], colors["capacity"], colors["mariposa"]]
        assert len(set(paper_colors)) == 3
        # Global: a second lookup — any context — returns the same hex.
        assert method_color("capacity") == colors["capacity"]
        # An unregistered method degrades to a stable fallback slot.
        assert method_color("hand-built") == method_color("hand-built")


class TestPayloads:
    def test_series_payload_shape(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        payload = figure_payload(
            warm_store.store, catalog_spec("response_time"), cells
        )
        assert payload["kind"] == "series"
        assert set(payload["scenarios"]) == set(
            warm_store.spec.scenarios
        )
        body = payload["scenarios"]["captive_fixed_80"]
        assert body["method_order"] == ["sqlb", "capacity"]
        for method in body["method_order"]:
            band = body["methods"][method]
            assert (
                len(band["mean"])
                == len(band["p50"])
                == len(band["p90"])
                == len(band["ci_halfwidth"])
                == len(body["times"])
            )
            assert band["seeds"] == list(warm_store.spec.seeds)
        assert payload["missing"] == []

    def test_payload_is_strict_json_with_null_for_nan(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        for spec in FIGURE_CATALOG:
            payload = figure_payload(warm_store.store, spec, cells)
            text = payload_bytes(payload)  # allow_nan=False inside
            assert json.loads(text.decode()) == payload

    def test_departures_payload_reports_fractions(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        payload = figure_payload(
            warm_store.store, catalog_spec("departures"), cells
        )
        body = payload["scenarios"]["autonomous_full"]
        for method in body["method_order"]:
            for kind in ("provider", "consumer"):
                entry = body["methods"][method][kind]
                assert 0.0 <= entry["mean"] <= 1.0
                assert set(entry["per_seed"]) == {
                    str(s) for s in warm_store.spec.seeds
                }

    def test_delta_payload_uses_first_method_as_baseline(
        self, warm_store
    ):
        cells, _ = cells_from_store(warm_store.root)
        payload = figure_payload(
            warm_store.store,
            catalog_spec("response_time_delta"),
            cells,
        )
        for scenario, body in payload["scenarios"].items():
            assert body["baseline"] == "sqlb"
            assert "sqlb" not in body["methods"]
            for entry in body["methods"].values():
                assert entry["delta"] == pytest.approx(
                    entry["mean"] - entry["baseline_mean"]
                )


class TestPaperKinds:
    @pytest.mark.parametrize(
        "metric",
        [
            "response_time_post_warmup",
            "provider_departure_fraction",
            "consumer_departure_fraction",
        ],
    )
    def test_curve_is_the_nanmean_of_the_metric_per_cell(
        self, warm_store, metric
    ):
        cells, _ = cells_from_store(warm_store.root)
        payload = figure_payload(warm_store.store, curve_spec(metric), cells)
        assert payload["missing"] == []
        for cell in cells:
            values = [
                get_metric(metric).extract(run)
                for run in cell_runs(warm_store, cell)
            ]
            body = payload["scenarios"][cell.scenario]
            assert body["method_order"] == ["sqlb", "capacity"]
            assert body["methods"][cell.method] == {
                "mean": float(np.nanmean(values))
            }

    def test_reasons_walk_the_provider_departure_records(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        payload = figure_payload(warm_store.store, REASONS_SPEC, cells)
        assert payload["missing"] == []
        bands = ("low", "medium", "high")
        departed = 0.0
        for cell in cells:
            runs = cell_runs(warm_store, cell)
            share = 100.0 / (cell.config.n_providers * len(runs))
            totals, shares = {}, {}
            for run in runs:
                for record in run.departures:
                    if record.kind != "provider":
                        continue
                    totals[record.reason] = totals.get(record.reason, 0.0) + share
                    for dimension, band in (
                        ("interest", record.interest_class),
                        ("adaptation", record.adaptation_class),
                        ("capacity", record.capacity_class),
                    ):
                        key = (record.reason, dimension, bands[band])
                        shares[key] = shares.get(key, 0.0) + share
            table = payload["scenarios"][cell.scenario]["methods"][cell.method]
            assert list(table["totals"]) == [
                "dissatisfaction", "starvation", "overutilization"
            ]
            for reason, total in table["totals"].items():
                assert total == totals.get(reason, 0.0)
                dims = table["cells"][reason]
                assert list(dims) == ["interest", "adaptation", "capacity"]
                for dimension, by_band in dims.items():
                    assert list(by_band) == list(bands)
                    for band, value in by_band.items():
                        assert value == shares.get((reason, dimension, band), 0.0)
                    # Table 3's invariant: each row sums to its total.
                    assert sum(by_band.values()) == pytest.approx(
                        total, abs=1e-9
                    )
            assert sum(table["totals"].values()) <= 100.0 + 1e-9
            departed += sum(table["totals"].values())
        assert departed > 0.0  # the autonomous cells lose providers

    def test_runs_in_memory_give_the_store_bytes_without_a_read(
        self, warm_store, store_reads
    ):
        cells, _ = cells_from_store(warm_store.root)
        specs = [
            *FIGURE_CATALOG,
            curve_spec("provider_departure_fraction"),
            REASONS_SPEC,
        ]
        expected = {
            spec.name: payload_bytes(
                figure_payload(warm_store.store, spec, cells)
            )
            for spec in specs
        }
        runs = {}
        for cell in cells:
            for seed, run in zip(cell.seeds, cell_runs(warm_store, cell)):
                runs.setdefault(cell.scenario, {})[(cell.method, seed)] = run
        for calls in store_reads.values():
            calls.clear()
        payloads = figure_payloads(None, specs, cells, runs)
        assert store_reads == {"get": [], "load_series": []}
        for spec in specs:
            assert payload_bytes(payloads[spec.name]) == expected[spec.name]


class TestRenderCatalog:
    def test_json_exports_are_byte_identical_across_runs(
        self, warm_store, tmp_path
    ):
        first = render_catalog(
            warm_store.root, tmp_path / "a", formats=("json",)
        )
        second = render_catalog(
            warm_store.root, tmp_path / "b", formats=("json",)
        )
        assert [p.name for p in first.written] == [
            p.name for p in second.written
        ]
        assert len(first.written) == len(FIGURE_CATALOG)
        for left, right in zip(first.written, second.written):
            assert left.read_bytes() == right.read_bytes(), left.name

    def test_only_filter_and_unknown_figures(self, warm_store, tmp_path):
        report = render_catalog(
            warm_store.root,
            tmp_path / "one",
            formats=("json",),
            only=("response_time",),
        )
        assert [p.name for p in report.written] == ["response_time.json"]
        with pytest.raises(ValueError, match="unknown figures"):
            render_catalog(
                warm_store.root,
                tmp_path / "bad",
                only=("figure_9z",),
            )
        assert not (tmp_path / "bad").exists()

    def test_unknown_format_is_refused(self, warm_store, tmp_path):
        with pytest.raises(ValueError, match="unknown figure formats"):
            render_catalog(
                warm_store.root, tmp_path / "f", formats=("pdf",)
            )
        assert not (tmp_path / "f").exists()

    def test_image_formats_degrade_without_matplotlib(
        self, warm_store, tmp_path
    ):
        report = render_catalog(
            warm_store.root, tmp_path / "imgs", formats=("json", "svg")
        )
        json_files = [
            p for p in report.written if p.suffix == ".json"
        ]
        assert len(json_files) == len(FIGURE_CATALOG)
        if matplotlib_available():
            svg_files = [
                p for p in report.written if p.suffix == ".svg"
            ]
            assert len(svg_files) == len(FIGURE_CATALOG)
            assert not report.skipped
        else:
            assert any("matplotlib" in note for note in report.skipped)
            assert all(p.suffix == ".json" for p in report.written)

    @pytest.mark.skipif(
        not matplotlib_available(), reason="matplotlib not installed"
    )
    def test_svg_rendering_is_deterministic(self, warm_store, tmp_path):
        first = render_catalog(
            warm_store.root,
            tmp_path / "svg-a",
            formats=("svg",),
            only=("response_time",),
        )
        second = render_catalog(
            warm_store.root,
            tmp_path / "svg-b",
            formats=("svg",),
            only=("response_time",),
        )
        assert (
            first.written[0].read_bytes()
            == second.written[0].read_bytes()
        )

    def test_catalog_names_are_unique(self):
        assert len(set(available_figures())) == len(FIGURE_CATALOG)


def reference_payload(store, spec, cells):
    """One figure's payload built the way every figure once read the
    store on its own: ``cell_band`` / ``cell_scalar_map`` /
    ``cell_scalars`` straight over the store, per figure."""
    grouped = {}
    for cell in cells:
        grouped.setdefault(cell.scenario, {})[cell.method] = cell
    scenarios, missing = {}, []

    def report(scenario, method, absent):
        if absent:
            missing.append(
                {"scenario": scenario, "method": method, "seeds": list(absent)}
            )

    for scenario, by_method in sorted(grouped.items()):
        ordered = method_order(list(by_method))
        methods = {}
        if spec.kind == "series":
            times = None
            for method in ordered:
                band = cell_band(store, by_method[method], spec.series)
                report(scenario, method, band.missing_seeds)
                if band.seeds:
                    times = band.times if times is None else times
                    methods[method] = {
                        "seeds": list(band.seeds),
                        "mean": band.mean,
                        "p50": band.quantiles[0.5],
                        "p90": band.quantiles[0.9],
                        "ci_halfwidth": band.ci_halfwidth,
                    }
            if methods:
                scenarios[scenario] = {
                    "times": times,
                    "method_order": [m for m in ordered if m in methods],
                    "methods": methods,
                }
        elif spec.kind == "departures":
            extracts = {
                kind: get_metric(f"{kind}_departure_fraction").extract
                for kind in ("provider", "consumer")
            }
            for method in ordered:
                by_kind, absent = cell_scalar_map(
                    store, by_method[method], extracts
                )
                report(scenario, method, absent)
                entry = {}
                for kind, values in by_kind.items():
                    if values:
                        seeds = sorted(values)
                        entry[kind] = {
                            "per_seed": {str(s): values[s] for s in seeds},
                            "mean": float(np.mean([values[s] for s in seeds])),
                            "ci_halfwidth": ci_halfwidth(
                                [values[s] for s in seeds]
                            ),
                        }
                if entry:
                    methods[method] = entry
            if methods:
                scenarios[scenario] = {
                    "method_order": [m for m in ordered if m in methods],
                    "methods": methods,
                }
        else:
            means = {}
            for method in ordered:
                values, absent = cell_scalars(
                    store, by_method[method], get_metric(spec.metric).extract
                )
                report(scenario, method, absent)
                if values:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        means[method] = float(
                            np.nanmean([values[s] for s in sorted(values)])
                        )
            present = [m for m in ordered if m in means]
            if len(present) < 2:
                continue
            base = means[present[0]]
            for method in present[1:]:
                delta = means[method] - base
                methods[method] = {
                    "mean": means[method],
                    "baseline_mean": base,
                    "delta": delta,
                    "relative": (
                        delta / abs(base)
                        if base != 0.0 and not math.isnan(base)
                        else float("nan")
                    ),
                }
            scenarios[scenario] = {
                "baseline": present[0],
                "method_order": present[1:],
                "methods": methods,
            }
    return jsonable(
        {
            "figure": spec.name,
            "title": spec.title,
            "kind": spec.kind,
            "ylabel": spec.ylabel,
            "series": spec.series,
            "metric": spec.metric,
            "engine_version": ENGINE_VERSION,
            "scenarios": scenarios,
            "missing": missing,
        }
    )


def run_keys(cells):
    return sorted(
        cache_key(cell.config, cell.method, seed)
        for cell in cells
        for seed in cell.seeds
    )


@pytest.fixture
def store_reads(monkeypatch):
    """The cache key of every ``ResultStore.get`` and ``load_series``
    call made while the test runs, listed per read."""
    reads = {"get": [], "load_series": []}
    for name, calls in reads.items():
        original = getattr(ResultStore, name)

        def counted(
            self, config, method, seed, *args,
            _original=original, _calls=calls, **kwargs
        ):
            _calls.append(cache_key(config, method, seed))
            return _original(self, config, method, seed, *args, **kwargs)

        monkeypatch.setattr(ResultStore, name, counted)
    return reads


class TestOneReadPerRun:
    def test_full_catalog_gets_each_run_once(
        self, warm_store, store_reads, tmp_path
    ):
        cells, _ = cells_from_store(warm_store.root)
        render_catalog(warm_store.root, tmp_path / "all")
        assert store_reads["load_series"] == []
        assert sorted(store_reads["get"]) == run_keys(cells)

    def test_series_figures_load_each_run_once(
        self, warm_store, store_reads, tmp_path
    ):
        cells, _ = cells_from_store(warm_store.root)
        render_catalog(
            warm_store.root, tmp_path / "series", only=SERIES_FIGURES
        )
        assert store_reads["get"] == []
        assert sorted(store_reads["load_series"]) == run_keys(cells)

    @pytest.mark.parametrize("only", [None, SERIES_FIGURES])
    def test_bytes_match_the_per_figure_reference(
        self, warm_store, tmp_path, only
    ):
        cells, _ = cells_from_store(warm_store.root)
        report = render_catalog(warm_store.root, tmp_path / "f", only=only)
        specs = [s for s in FIGURE_CATALOG if only is None or s.name in only]
        assert [p.name for p in report.written] == [
            f"{spec.name}.json" for spec in specs
        ]
        for spec, path in zip(specs, report.written):
            expected = reference_payload(warm_store.store, spec, cells)
            assert path.read_bytes() == payload_bytes(expected), spec.name

    @pytest.mark.parametrize("only", [None, SERIES_FIGURES])
    def test_an_uncommitted_run_is_missing_from_every_figure(
        self, warm_store, tmp_path, only
    ):
        root = tmp_path / "store"
        shutil.copytree(warm_store.root, root)
        cells, _ = cells_from_store(root)
        cell = next(c for c in cells if c.scenario == "autonomous_full")
        seed = cell.seeds[-1]
        (root / f"{cache_key(cell.config, cell.method, seed)}.json").unlink()
        report = render_catalog(root, tmp_path / "f", only=only)
        assert len(report.written) == len(only or FIGURE_CATALOG)
        expected = [
            {"scenario": cell.scenario, "method": cell.method, "seeds": [seed]}
        ]
        store = ResultStore(root)
        for path in report.written:
            payload = json.loads(path.read_bytes())
            assert payload["missing"] == expected, path.name
            spec = next(s for s in FIGURE_CATALOG if s.name == path.stem)
            reference = reference_payload(store, spec, cells)
            assert path.read_bytes() == payload_bytes(reference), path.name

    @pytest.mark.parametrize("only", [None, ("response_time",)])
    def test_seeds_on_different_grids_raise(
        self, warm_store, tmp_path, only
    ):
        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        forged = ResultStore(tmp_path / "forged")
        for seed in cell.seeds:
            result = warm_store.store.get(cell.config, cell.method, seed)
            if seed == cell.seeds[-1]:
                # A self-consistent run one sample longer than its
                # siblings: readable, but not on the cell's grid.
                result.collector.add_sample(
                    999.0, dict.fromkeys(result.collector.names, 1.0)
                )
            forged.put(result, method=cell.method)
        with pytest.raises(ValueError, match="different grid"):
            render_catalog(
                forged.root, tmp_path / "f", only=only, cells=[cell]
            )
