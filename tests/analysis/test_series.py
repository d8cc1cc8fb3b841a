"""Tests for series extraction and across-seed aggregation.

The load-bearing properties: (1) per-seed extraction through the
manifest contract returns *bit-for-bit* the arrays the harness
produced — the analysis layer adds no numerics of its own on the read
path; (2) the per-sample band aggregation agrees exactly with the
scalar reference implementations (``average_series``, ``ci_halfwidth``)
applied sample by sample, on random NaN-riddled inputs.
"""

from __future__ import annotations

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.series import (
    CellRuns,
    aggregate_band,
    band_payload,
    cell_band,
    cell_scalars,
    cells_from_store,
    extract_cell_series,
)
from repro.analysis.metrics import get_metric
from repro.experiments.harness import average_series, run_repeated
from repro.sweeps.aggregate import SUMMARY_QUANTILES, ci_halfwidth
from repro.sweeps.runner import load_manifests, write_manifest
from repro.sweeps.spec import SweepSpec

N_TRIALS = 200

#: Sample values with the ties and extremes a quantile can trip on;
#: finite ones stay small enough that the band's variance cannot
#: overflow.
_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, np.inf, -np.inf]),
    st.floats(-1e150, 1e150, allow_subnormal=True),
)


@st.composite
def _stacks(draw) -> np.ndarray:
    """A seeds x samples stack whose columns are each complete, ragged
    (some seeds NaN) or all NaN."""
    seeds = draw(st.integers(1, 6))
    samples = draw(st.integers(0, 12))
    stack = draw(hnp.arrays(np.float64, (seeds, samples), elements=_SAMPLES))
    for column in range(samples):
        kind = draw(st.sampled_from(("complete", "ragged", "all_nan")))
        if kind == "all_nan":
            stack[:, column] = np.nan
        elif kind == "ragged":
            rows = draw(
                st.lists(st.integers(0, seeds - 1), min_size=1, unique=True)
            )
            stack[rows, column] = np.nan
    return stack


def _nanquantile_band(stack: np.ndarray) -> dict[float, np.ndarray]:
    """``aggregate_band``'s quantiles in their original form: one
    ``np.nanquantile`` over the whole stack per quantile."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return {
            q: np.nanquantile(stack, q, axis=0) for q in SUMMARY_QUANTILES
        }


class TestCellDiscovery:
    def test_cells_match_the_sweep_grid(self, warm_store):
        cells, stale = cells_from_store(warm_store.root)
        assert stale == 0
        spec = warm_store.spec
        assert {(c.scenario, c.method) for c in cells} == {
            (scenario, method)
            for scenario in spec.scenarios
            for method in spec.methods
        }
        for cell in cells:
            assert cell.seeds == spec.seeds
            assert cell.config == spec.configs()[cell.scenario]

    def test_configs_are_built_once_per_spec_payload(
        self, warm_store, tmp_path
    ):
        import shutil

        root = tmp_path / "two-sweeps"
        shutil.copytree(warm_store.root, root)
        # A second sweep over the same cells at another seed: every row
        # now carries two distinct spec payloads.
        spec = warm_store.spec
        more = dataclasses.replace(spec, name="more-seeds", seeds=(3,))
        write_manifest(
            root,
            more,
            "deadbeef",
            {"shard_index": 0, "shard_count": 1},
            "shard0000of0001",
            [
                {
                    "scenario": scenario,
                    "method": method,
                    "seed": 3,
                    "key": "0" * 64,
                    "state": "simulated",
                }
                for scenario in spec.scenarios
                for method in spec.methods
            ],
        )
        with mock.patch.object(
            SweepSpec, "configs", autospec=True, side_effect=SweepSpec.configs
        ) as configs:
            cells, _ = cells_from_store(root)
        assert configs.call_count == 2
        assert len(cells) == len(spec.scenarios) * len(spec.methods)
        for cell in cells:
            assert cell.seeds == (1, 2, 3)
            assert cell.config == spec.configs()[cell.scenario]

    def test_conflicting_scenario_configs_are_refused(
        self, warm_store, tmp_path
    ):
        import shutil

        root = tmp_path / "ambiguous"
        shutil.copytree(warm_store.root, root)
        # A second sweep declaring the same scenario at another scale.
        conflicting = warm_store.spec.__class__(
            name="other-scale",
            scenarios=("captive_fixed_80",),
            methods=("sqlb",),
            seeds=(1,),
            scale="scaled",
        )
        write_manifest(
            root,
            conflicting,
            "deadbeef",
            {"shard_index": 0, "shard_count": 1},
            "shard0000of0001",
            [
                {
                    "scenario": "captive_fixed_80",
                    "method": "sqlb",
                    "seed": 1,
                    "key": "0" * 64,
                    "state": "simulated",
                }
            ],
        )
        with pytest.raises(ValueError, match="ambiguous"):
            cells_from_store(root)

    def test_mixed_replay_and_live_cells_are_refused(
        self, warm_store, tmp_path
    ):
        """One cell declared by both a live sweep and a trace replay is
        ambiguous: the store keys resolve under different workloads."""
        import shutil

        root = tmp_path / "mixed"
        shutil.copytree(warm_store.root, root)
        spec = warm_store.spec
        write_manifest(
            root,
            spec,
            "deadbeef",
            {
                "trace": "some/trace.json",
                "trace_workload": {
                    "kind": "trace",
                    "fraction": 0.8,
                    "trace_path": "some/trace.json",
                    "trace_digest": "f" * 64,
                    "trace_base_kind": "fixed",
                },
            },
            "trace-replay.ffffffffffff",
            [
                {
                    "scenario": spec.scenarios[0],
                    "method": spec.methods[0],
                    "seed": spec.seeds[0],
                    "key": "0" * 64,
                    "state": "simulated",
                }
            ],
        )
        with pytest.raises(ValueError, match="trace-replay"):
            cells_from_store(root)

    def test_stale_manifests_are_skipped_not_reported_missing(
        self, warm_store, tmp_path
    ):
        import json
        import shutil

        root = tmp_path / "stale"
        shutil.copytree(warm_store.root, root)
        manifest_paths = sorted((root / "manifests").glob("*.json"))
        payload = json.loads(manifest_paths[0].read_text())
        payload["engine_version"] = "0-ancient"
        manifest_paths[0].write_text(json.dumps(payload))
        cells, stale = cells_from_store(root)
        assert stale == 1
        assert cells == []  # the only manifest was stale


class TestExtraction:
    def test_extraction_is_bit_for_bit(self, warm_store):
        """Store-read series must equal the harness's arrays exactly."""
        spec = warm_store.spec
        cells, _ = cells_from_store(warm_store.root)
        for cell in cells:
            reference = run_repeated(
                cell.config,
                cell.method,
                spec.seeds,
                executor=warm_store.executor,
            )
            for name in (
                "response_time_mean",
                "provider_intention_satisfaction_mean",
                "utilization_mean",
            ):
                times, per_seed, missing = extract_cell_series(
                    warm_store.store, cell, name
                )
                assert missing == ()
                assert np.array_equal(times, reference[0].times())
                for seed, result in zip(spec.seeds, reference):
                    assert np.array_equal(
                        per_seed[seed],
                        result.series(name),
                        equal_nan=True,
                    ), (cell.scenario, cell.method, name, seed)

    def test_band_mean_matches_average_series(self, warm_store):
        """The band's mean is exactly the harness's NaN-aware average."""
        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        results = run_repeated(
            cell.config,
            cell.method,
            cell.seeds,
            executor=warm_store.executor,
        )
        band = cell_band(warm_store.store, cell, "response_time_mean")
        assert np.array_equal(
            band.mean,
            average_series(results, "response_time_mean"),
            equal_nan=True,
        )

    def test_missing_seeds_are_reported_not_invented(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        widened = CellRuns(
            scenario=cell.scenario,
            method=cell.method,
            config=cell.config,
            seeds=cell.seeds + (777,),  # never simulated
        )
        band = cell_band(
            warm_store.store, widened, "response_time_mean"
        )
        assert band.missing_seeds == (777,)
        assert band.seeds == cell.seeds

    def test_scalars_match_metric_on_full_results(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        cell = next(
            c for c in cells if c.scenario == "autonomous_full"
        )
        metric = get_metric("provider_departure_fraction")
        values, missing = cell_scalars(
            warm_store.store, cell, metric.extract
        )
        assert missing == ()
        reference = run_repeated(
            cell.config,
            cell.method,
            cell.seeds,
            executor=warm_store.executor,
        )
        for seed, result in zip(cell.seeds, reference):
            assert values[seed] == metric.extract(result)


class TestAggregateBand:
    """Random-input sweeps against the scalar reference implementations."""

    @pytest.fixture(scope="class")
    def matrices(self):
        rng = np.random.default_rng(4242)
        cases = []
        for _ in range(N_TRIALS):
            seeds = rng.integers(1, 6)
            samples = rng.integers(1, 20)
            matrix = rng.normal(10.0, 5.0, size=(seeds, samples))
            # Riddle with NaN (including whole-column NaN) the way
            # response-time series are.
            mask = rng.random(matrix.shape) < 0.35
            matrix[mask] = np.nan
            cases.append(matrix)
        return cases

    def test_matches_scalar_references_per_sample(self, matrices):
        for matrix in matrices:
            per_seed = {
                seed: matrix[index]
                for index, seed in enumerate(
                    range(100, 100 + matrix.shape[0])
                )
            }
            mean, quantiles, halfwidth = aggregate_band(per_seed)
            for column in range(matrix.shape[1]):
                values = matrix[:, column]
                finite = values[~np.isnan(values)]
                if finite.size:
                    assert mean[column] == pytest.approx(
                        finite.mean(), nan_ok=False
                    )
                    assert quantiles[0.5][column] == pytest.approx(
                        float(np.quantile(finite, 0.5))
                    )
                    assert quantiles[0.9][column] == pytest.approx(
                        float(np.quantile(finite, 0.9))
                    )
                else:
                    assert np.isnan(mean[column])
                # The per-sample CI must equal the scalar definition.
                reference = ci_halfwidth(values.tolist())
                if np.isnan(reference):
                    assert np.isnan(halfwidth[column])
                else:
                    assert halfwidth[column] == pytest.approx(reference)

    def test_seed_insertion_order_does_not_matter(self, matrices):
        matrix = matrices[0]
        seeds = list(range(100, 100 + matrix.shape[0]))
        forward = {s: matrix[i] for i, s in enumerate(seeds)}
        backward = {
            s: matrix[i] for i, s in reversed(list(enumerate(seeds)))
        }
        for left, right in zip(
            aggregate_band(forward), aggregate_band(backward)
        ):
            if isinstance(left, dict):
                for q in left:
                    assert np.array_equal(
                        left[q], right[q], equal_nan=True
                    )
            else:
                assert np.array_equal(left, right, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(_stacks())
    @example(np.array([[1.0, -0.0, np.nan, np.inf]]))
    @example(np.empty((3, 0)))
    @example(np.array([[0.0, np.nan], [-0.0, np.nan], [0.0, 2.0]]))
    def test_quantiles_are_the_nanquantile_form_bit_for_bit(self, stack):
        per_seed = {100 + row: stack[row] for row in range(len(stack))}
        _, quantiles, _ = aggregate_band(per_seed)
        expected = _nanquantile_band(stack)
        assert list(quantiles) == list(expected)
        for q, values in expected.items():
            assert quantiles[q].dtype == values.dtype
            assert quantiles[q].tobytes() == values.tobytes(), q

    def test_nan_free_stack_never_reaches_nanquantile(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.nanquantile on a NaN-free stack")

        monkeypatch.setattr(np, "nanquantile", refuse)
        stack = np.random.default_rng(7).normal(10.0, 5.0, size=(10, 40))
        _, quantiles, _ = aggregate_band(dict(enumerate(stack)))
        for q, values in quantiles.items():
            assert values.tobytes() == np.quantile(stack, q, axis=0).tobytes()

    def test_overflowing_variance_gives_an_inf_halfwidth(self):
        per_seed = {
            1: np.array([1e300, 2.0]),
            2: np.array([-1e300, 3.0]),
            3: np.array([5e299, 4.0]),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, quantiles, halfwidth = aggregate_band(per_seed)
        assert np.isfinite(mean).all()
        assert halfwidth[0] == np.inf
        assert halfwidth[1] == pytest.approx(ci_halfwidth([2.0, 3.0, 4.0]))
        assert quantiles[0.5].tolist() == [5e299, 3.0]

    def test_empty_cell_degenerates_cleanly(self):
        mean, quantiles, halfwidth = aggregate_band({})
        assert mean.size == 0
        assert halfwidth.size == 0
        assert all(values.size == 0 for values in quantiles.values())


class TestAlignment:
    def test_mixed_grids_raise(self, warm_store, tmp_path):
        from repro.experiments.store import ResultStore

        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        # Forge a store where one seed's npz carries a longer grid.
        forged = ResultStore(tmp_path / "forged")
        for seed in cell.seeds:
            result = warm_store.store.get(cell.config, cell.method, seed)
            forged.put(result, method=cell.method)
        key = forged.key(cell.config, cell.method, cell.seeds[-1])
        import numpy as np_

        with np_.load(forged._npz_path(key)) as archive:
            arrays = {name: archive[name] for name in archive.files}
            arrays = {k: v.copy() for k, v in arrays.items()}
        arrays["times"] = np_.concatenate([arrays["times"], [999.0]])
        arrays["series__response_time_mean"] = np_.concatenate(
            [arrays["series__response_time_mean"], [1.0]]
        )
        np_.savez_compressed(forged._npz_path(key), **arrays)
        with pytest.raises(ValueError, match="different grid"):
            extract_cell_series(forged, cell, "response_time_mean")


class TestBandPayload:
    def test_payload_is_strict_json(self, warm_store):
        import json

        cells, _ = cells_from_store(warm_store.root)
        band = cell_band(
            warm_store.store, cells[0], "response_time_mean"
        )
        payload = band_payload(band)
        text = json.dumps(payload, allow_nan=False)  # must not raise
        assert json.loads(text) == payload
        assert payload["seeds"] == list(band.seeds)
        assert len(payload["mean"]) == band.times.size


class TestUnknownSeriesName:
    def test_load_series_raises_on_a_typo(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        with pytest.raises(KeyError, match="unknown series"):
            warm_store.store.load_series(
                cell.config, cell.method, cell.seeds[0],
                names=("response_time_men",),
            )

    def test_a_genuinely_absent_run_is_still_a_miss(self, warm_store):
        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        assert (
            warm_store.store.load_series(
                cell.config, cell.method, 999_999,
                names=("response_time_mean",),
            )
            is None
        )

    def test_cli_rejects_a_typoed_series(self, warm_store):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown series"):
            main(
                [
                    "analyze", "series",
                    "--store", str(warm_store.root),
                    "--series", "response_time_men",
                ]
            )


class TestCellScalarMap:
    def test_matches_single_metric_extraction(self, warm_store):
        from repro.analysis.series import cell_scalar_map

        cells, _ = cells_from_store(warm_store.root)
        cell = cells[0]
        metrics = {
            name: get_metric(name).extract
            for name in (
                "response_time_post_warmup",
                "provider_departure_fraction",
            )
        }
        combined, missing = cell_scalar_map(
            warm_store.store, cell, metrics
        )
        assert missing == ()
        for name, extract in metrics.items():
            single, _ = cell_scalars(warm_store.store, cell, extract)
            assert combined[name] == single
