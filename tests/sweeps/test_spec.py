"""Tests for SweepSpec: expansion order, hashing, shard determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sweeps.spec import SweepSpec


def small_spec() -> SweepSpec:
    return SweepSpec(
        name="small",
        scenarios=("captive_fixed_80", "flash_crowd"),
        methods=("sqlb", "capacity", "mariposa"),
        seeds=(1, 2),
        scale="tiny",
    )


def catalog_spec() -> SweepSpec:
    from repro.sweeps.scenarios import available_scenarios

    return SweepSpec(
        name="full-catalog",
        scenarios=available_scenarios(),
        methods=("capacity",),
        seeds=(11, 23, 47),
        scale="tiny",
    )


class TestValidation:
    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepSpec(name="x", scenarios=(), methods=("sqlb",), seeds=(1,))
        with pytest.raises(ValueError, match="needs a name"):
            SweepSpec(name="", scenarios=("diurnal",), seeds=(1,))

    def test_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            SweepSpec(name="x", scenarios=("warp_drive",), seeds=(1,))
        with pytest.raises(ValueError, match="unknown methods"):
            SweepSpec(
                name="x",
                scenarios=("diurnal",),
                methods=("oracle",),
                seeds=(1,),
            )
        with pytest.raises(ValueError, match="unknown scale"):
            SweepSpec(
                name="x", scenarios=("diurnal",), seeds=(1,), scale="huge"
            )

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate seed"):
            SweepSpec(name="x", scenarios=("diurnal",), seeds=(1, 1))
        with pytest.raises(ValueError, match="duplicate scenario"):
            SweepSpec(name="x", scenarios=("diurnal", "diurnal"), seeds=(1,))

    def test_shard_bounds(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            spec.shard(0, 0)
        with pytest.raises(ValueError):
            spec.shard(2, 2)
        with pytest.raises(ValueError):
            spec.shard(-1, 2)


class TestExpansion:
    def test_order_is_scenario_major_then_method_then_seed(self):
        jobs = small_spec().expand()
        cells = [(j.scenario, j.method, j.seed) for j in jobs]
        assert cells == [
            (scenario, method, seed)
            for scenario in ("captive_fixed_80", "flash_crowd")
            for method in ("sqlb", "capacity", "mariposa")
            for seed in (1, 2)
        ]

    def test_expansion_is_deterministic(self):
        assert small_spec().expand() == small_spec().expand()

    def test_scenario_configs_differ_by_scenario_only(self):
        jobs = small_spec().expand()
        by_scenario = {}
        for job in jobs:
            by_scenario.setdefault(job.scenario, set()).add(job.job.config)
        for configs in by_scenario.values():
            assert len(configs) == 1

    def test_spec_hash_tracks_content(self):
        base = small_spec()
        assert base.spec_hash() == small_spec().spec_hash()
        renamed = SweepSpec(
            name="other",
            scenarios=base.scenarios,
            methods=base.methods,
            seeds=base.seeds,
            scale=base.scale,
        )
        assert renamed.spec_hash() != base.spec_hash()
        reseeded = SweepSpec(
            name=base.name,
            scenarios=base.scenarios,
            methods=base.methods,
            seeds=(1, 3),
            scale=base.scale,
        )
        assert reseeded.spec_hash() != base.spec_hash()
        # Integral seeds keep their int() form, and with it the hash.
        integral = dataclasses.replace(base, seeds=(1.0, 2.0))
        assert integral.seeds == (1, 2)
        assert integral.spec_hash() == base.spec_hash()


class TestShardDeterminism:
    """Acceptance: shards 0..n-1 partition the unsharded job list."""

    @pytest.mark.parametrize(
        "spec_builder, shard_count",
        [
            (small_spec, 1),
            (small_spec, 2),
            (small_spec, 3),
            (small_spec, 5),
            (small_spec, 12),  # one job per shard
            (catalog_spec, 2),
            (catalog_spec, 4),
            (catalog_spec, 7),
        ],
    )
    def test_shards_partition_the_expansion(self, spec_builder, shard_count):
        spec = spec_builder()
        full = spec.expand()
        shards = [spec.shard(k, shard_count) for k in range(shard_count)]

        # Disjoint: no job appears in two shards.
        seen = []
        for shard in shards:
            seen.extend(shard)
        assert len(seen) == len(full)
        assert len(set(seen)) == len(set(full)) == len(full)

        # Union equals the unsharded list (round-robin interleave).
        reassembled = [None] * len(full)
        for index, shard in enumerate(shards):
            reassembled[index::shard_count] = shard
        assert reassembled == full

    def test_more_shards_than_jobs_leaves_empties(self):
        spec = SweepSpec(
            name="tiny",
            scenarios=("diurnal",),
            methods=("capacity",),
            seeds=(1,),
            scale="tiny",
        )
        shards = [spec.shard(k, 4) for k in range(4)]
        assert [len(s) for s in shards] == [1, 0, 0, 0]
