"""Declarative sweep specifications.

A :class:`SweepSpec` names a grid — scenarios × methods × seeds at one
scale — and expands it to a *deterministic, ordered* list of simulation
jobs.  Determinism is the load-bearing property: every machine that
holds the same spec derives the same job list, so ``shard k of n`` can
be computed independently everywhere with no coordination, and the
union of all shards is exactly the unsharded list.

``spec_hash`` fingerprints the grid (spec fields only — *not* the
engine version, which the shard manifests record separately), so
manifests from different machines can be matched up by content.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro._checks import check_number
from repro.allocation.registry import PAPER_METHODS, available_methods
from repro.experiments.executor import SimulationJob
from repro.simulation.config import SimulationConfig
from repro.sweeps.scenarios import (
    SCALES,
    available_scenarios,
    scenario_catalog,
)

__all__ = ["SweepJob", "SweepSpec"]


@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One sweep cell: the owning scenario plus the executable job."""

    scenario: str
    job: SimulationJob

    @property
    def method(self) -> str:
        return self.job.method

    @property
    def seed(self) -> int:
        return self.job.seed


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A named scenarios × methods × seeds grid at one scale.

    ``expand()`` orders jobs scenario-major, then method, then seed —
    the same nesting the per-figure experiment families use — and
    ``shard(k, n)`` takes every ``n``-th job starting at ``k``
    (round-robin), which balances scenarios of different cost across
    shards better than contiguous blocks would.
    """

    name: str
    scenarios: tuple[str, ...]
    methods: tuple[str, ...] = PAPER_METHODS
    seeds: tuple[int, ...] = (11,)
    scale: str = "scaled"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep needs a name")
        if not self.scenarios or not self.methods or not self.seeds:
            raise ValueError(
                "a sweep needs at least one scenario, method, and seed"
            )
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "methods", tuple(self.methods))
        for seed in self.seeds:
            check_number("SweepSpec", "seeds", seed, ge=0, integer=True)
        object.__setattr__(
            self, "seeds", tuple(int(seed) for seed in self.seeds)
        )
        for pool, label in (
            (self.scenarios, "scenario"),
            (self.methods, "method"),
            (self.seeds, "seed"),
        ):
            if len(set(pool)) != len(pool):
                raise ValueError(f"duplicate {label} in sweep spec: {pool}")
        unknown = set(self.scenarios) - set(available_scenarios())
        if unknown:
            raise ValueError(
                f"unknown scenarios {sorted(unknown)}; "
                f"available: {sorted(available_scenarios())}"
            )
        unknown = set(self.methods) - set(available_methods())
        if unknown:
            raise ValueError(
                f"unknown methods {sorted(unknown)}; "
                f"available: {sorted(available_methods())}"
            )
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; available: {sorted(SCALES)}"
            )

    # -- identity -----------------------------------------------------

    def payload(self) -> dict:
        """The canonical JSON-ready description of this spec."""
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "methods": list(self.methods),
            "seeds": list(self.seeds),
            "scale": self.scale,
        }

    def spec_hash(self) -> str:
        """SHA-256 fingerprint of the grid (short-form, 16 hex chars)."""
        canonical = json.dumps(
            self.payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # -- expansion ----------------------------------------------------

    def configs(
        self, base: SimulationConfig | None = None
    ) -> dict[str, SimulationConfig]:
        """scenario name → fully built config, in spec order."""
        catalog = scenario_catalog(
            base if base is not None else self.scale, names=self.scenarios
        )
        return {name: catalog[name].config for name in self.scenarios}

    def expand(self, base: SimulationConfig | None = None) -> list[SweepJob]:
        """The full ordered job list (scenario-major, method, seed)."""
        configs = self.configs(base)
        return [
            SweepJob(
                scenario=scenario,
                job=SimulationJob(configs[scenario], method, seed),
            )
            for scenario in self.scenarios
            for method in self.methods
            for seed in self.seeds
        ]

    def shard(
        self,
        shard_index: int,
        shard_count: int,
        base: SimulationConfig | None = None,
    ) -> list[SweepJob]:
        """Deterministic round-robin shard ``shard_index`` of ``shard_count``.

        The shards partition :meth:`expand`: disjoint, order-preserving
        within each shard, and their union (over all indices) is the
        full list.
        """
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard_index must be in [0, {shard_count}), got {shard_index}"
            )
        return self.expand(base)[shard_index::shard_count]
