"""Scenario-level adaptive seeding.

The paper fixes ``nbRepeat = 10`` for every cell, but scenarios differ
wildly in across-seed variance: a captive fixed-load run is nearly
deterministic while a churn-stress run is noisy.  The adaptive
controller spends repetition budget where the data demands it — after
each *completed* seed batch it computes the 95 % confidence interval of
the headline metric (post-warmup response time) across seeds and
enqueues another batch of seeds only while any method's CI half-width
still exceeds a threshold, capped at ``max_seeds`` per scenario.

The controller is deliberately stateless and replicated: every drained
worker runs :meth:`AdaptiveController.step` against the same queue and
store, derives the same decision from the same done-records, and the
queue's id-deduplicating ``enqueue`` turns concurrent identical
extensions into one.  A scenario whose current batch is still running
is left alone (``waiting``) — extensions happen only on complete
information, which is what makes replica decisions agree.

Seed extension is a deterministic ladder (odd numbers from 1009,
skipping anything already issued) so replicas also agree on *which*
seeds come next, and so adaptively added seeds never collide with the
paper's seed set.
"""

from __future__ import annotations

import dataclasses
import math

from repro._checks import check_number
from repro.analysis.metrics import available_metrics, get_metric
from repro.experiments.executor import SimulationJob
from repro.experiments.store import ResultStore, key_scope
from repro.scheduler.queue import WorkQueue, job_id
from repro.sweeps.aggregate import ci_halfwidth
from repro.sweeps.spec import SweepJob

__all__ = [
    "AdaptiveConfig",
    "AdaptiveController",
    "AdaptiveDecision",
    "extension_seeds",
]

#: First rung of the deterministic seed-extension ladder.
_EXTENSION_START = 1009


def extension_seeds(
    issued: tuple[int, ...], count: int
) -> tuple[int, ...]:
    """The next ``count`` extension seeds given what is already issued.

    Walks odd numbers from 1009 upward, skipping seeds already issued —
    pure function of the issued set, so every controller replica
    derives the same extension.
    """
    taken = set(issued)
    seeds: list[int] = []
    candidate = _EXTENSION_START
    while len(seeds) < count:
        if candidate not in taken:
            seeds.append(candidate)
        candidate += 2
    return tuple(seeds)


@dataclasses.dataclass(frozen=True)
class AdaptiveConfig:
    """Adaptive-seeding policy, stored verbatim in ``queue.json``.

    ``ci_threshold`` is the absolute 95 % CI half-width (in the
    metric's own units) below which a scenario counts as converged;
    ``seed_batch`` seeds are added per extension; ``max_seeds`` caps
    the total seeds a scenario may ever issue.  ``metric`` is any name
    from the :mod:`~repro.analysis.metrics` registry (the CLI's
    ``--ci-metric``); the default — the paper's headline post-warmup
    response time — is unchanged from before the registry existed.
    """

    ci_threshold: float
    max_seeds: int
    seed_batch: int = 2
    metric: str = "response_time_post_warmup"

    def __post_init__(self) -> None:
        owner = "AdaptiveConfig"
        check_number(owner, "ci_threshold", self.ci_threshold, ge=0)
        check_number(owner, "max_seeds", self.max_seeds, gt=0, integer=True)
        check_number(owner, "seed_batch", self.seed_batch, gt=0, integer=True)
        if self.metric not in available_metrics():
            raise ValueError(
                f"unknown convergence metric {self.metric!r}; "
                f"available: {', '.join(available_metrics())}"
            )

    def payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "AdaptiveConfig":
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class AdaptiveDecision:
    """What one controller step concluded for one scenario.

    ``action`` is one of ``waiting`` (batch still running, or results
    not visible in the configured store), ``converged`` (CI tight
    enough, no more seeds), ``capped`` (``max_seeds`` reached while
    still wide), ``error`` (a cell was error-parked — terminal, no CI
    can ever be computed), or ``extended`` (``new_seeds`` enqueued).
    ``halfwidth`` is NaN while undefined (fewer than two usable
    seeds).
    """

    scenario: str
    action: str
    seeds_done: tuple[int, ...]
    halfwidth: float
    new_seeds: tuple[int, ...] = ()


class AdaptiveController:
    """Drives seed extension for one queue against its result store."""

    def __init__(self, queue: WorkQueue, store: ResultStore) -> None:
        payload = queue.adaptive_payload
        if payload is None:
            raise ValueError(
                f"queue {queue.root} was initialised without adaptive "
                "seeding"
            )
        self.queue = queue
        self.store = store
        self.config = AdaptiveConfig.from_payload(payload)
        self._metric = get_metric(self.config.metric)
        # Converged/capped are terminal: no replica will ever extend
        # such a scenario again, so cache the verdict and spare the
        # idle-poll loop the per-(method, seed) store reads.
        self._terminal: dict[str, AdaptiveDecision] = {}

    # -- state reads --------------------------------------------------

    def _issued_seeds(self) -> dict[str, tuple[int, ...]]:
        """Per-scenario issued seeds, from job *filenames* alone.

        ``job_id`` encodes ``scenario--method--s<seed>`` and catalog
        scenario/registered method names never contain ``--``, so two
        readdirs (here and the done-id set) replace opening and parsing
        every job record on every idle poll — this runs twice a second
        per waiting worker against a possibly-shared filesystem.
        """
        issued: dict[str, set[int]] = {
            scenario: set() for scenario in self.queue.spec.scenarios
        }
        for path in self.queue.jobs_dir.glob("*.json"):
            parts = path.stem.rsplit("--", 2)
            if len(parts) != 3 or not parts[2].startswith("s"):
                continue
            scenario, _method, seed_text = parts
            try:
                seed = int(seed_text[1:])
            except ValueError:
                continue
            if scenario in issued:
                issued[scenario].add(seed)
        return {
            scenario: tuple(sorted(seeds))
            for scenario, seeds in issued.items()
        }

    def _done_seeds(
        self, scenario: str, issued: tuple[int, ...], done_ids: set[str]
    ) -> tuple[int, ...]:
        """Seeds for which *every* method of the spec has a done record."""
        methods = self.queue.spec.methods
        return tuple(
            sorted(
                seed
                for seed in issued
                if all(
                    job_id(scenario, method, seed) in done_ids
                    for method in methods
                )
            )
        )

    def _halfwidth(self, scenario: str, seeds: tuple[int, ...]) -> float:
        """Worst (largest) per-method CI half-width across ``seeds``.

        The metric is the configured registry metric (post-warmup
        response time unless ``--ci-metric`` chose another).  NaN when
        any method has fewer than two readable results — an undefined
        CI always counts as "not yet converged".
        """
        config = self.queue.config_for(scenario)
        worst = float("-inf")
        for method in self.queue.spec.methods:
            values = []
            for seed in seeds:
                result = self.store.get(config, method, seed)
                if result is not None:
                    values.append(self._metric.extract(result))
            width = ci_halfwidth(values)
            if math.isnan(width):
                return float("nan")
            worst = max(worst, width)
        return worst if worst > float("-inf") else float("nan")

    # -- the control step ---------------------------------------------

    @key_scope()
    def step(self) -> list[AdaptiveDecision]:
        """One control pass over every scenario; enqueues extensions.

        Deterministic given the queue's done-state, so replicated calls
        from concurrently drained workers agree; the queue's enqueue
        dedupe collapses their identical extensions into one.
        """
        scenarios = self.queue.spec.scenarios
        if len(self._terminal) == len(scenarios):
            # Every scenario reached a terminal verdict: skip the
            # jobs/done directory scans entirely — a standing worker
            # polls this twice a second against a shared filesystem.
            return [self._terminal[scenario] for scenario in scenarios]
        issued_by_scenario = self._issued_seeds()
        done_ids = {
            path.stem for path in self.queue.done_dir.glob("*.json")
        }
        live_ids = done_ids | {
            path.name for path in self.queue.pending_dir.glob("*")
        } | {
            path.name.partition("@")[0]
            for path in self.queue.leases_dir.glob("*")
        }
        decisions: list[AdaptiveDecision] = []
        for scenario in self.queue.spec.scenarios:
            if scenario in self._terminal:
                decisions.append(self._terminal[scenario])
                continue
            issued = issued_by_scenario.get(scenario, ())
            done = self._done_seeds(scenario, issued, done_ids)
            if set(done) != set(issued):
                # Repair before waiting: a crash between an extension's
                # job-record write and its ticket write leaves a job
                # with no live state (no ticket, lease, or done record)
                # — without re-driving the idempotent enqueue for those
                # the scenario would report "waiting" forever while the
                # queue counts as drained.  The listing snapshots can
                # transiently mis-flag a job mid-transition; enqueue's
                # own fresh per-job checks filter those out.
                stranded = [
                    SweepJob(
                        scenario=scenario,
                        job=SimulationJob(
                            self.queue.config_for(scenario),
                            method,
                            seed,
                        ),
                    )
                    for method in self.queue.spec.methods
                    for seed in issued
                    if job_id(scenario, method, seed) not in live_ids
                ]
                if stranded:
                    self.queue.enqueue(stranded)
                decisions.append(
                    AdaptiveDecision(
                        scenario=scenario,
                        action="waiting",
                        seeds_done=done,
                        halfwidth=float("nan"),
                    )
                )
                continue
            config = self.queue.config_for(scenario)
            if any(
                not self.store.contains(config, method, seed)
                for method in self.queue.spec.methods
                for seed in done
            ):
                # Done records without store results: either a cell was
                # error-parked (attempts exhausted — terminal for the
                # scenario, no CI can ever be computed) or this
                # controller is pointed at the wrong store.  Reading
                # the done records to tell them apart is fine here —
                # this branch is off the hot path.  A missing result
                # must never read as "high variance": a typo'd
                # --cache-dir would drive every scenario to max_seeds
                # with real simulations (queue_report refuses the same
                # mistake loudly).
                error_ids = {
                    record["id"]
                    for record in self.queue.done_records()
                    if record.get("state") == "error"
                }
                has_error = any(
                    job_id(scenario, method, seed) in error_ids
                    for method in self.queue.spec.methods
                    for seed in done
                )
                decision = AdaptiveDecision(
                    scenario=scenario,
                    action="error" if has_error else "waiting",
                    seeds_done=done,
                    halfwidth=float("nan"),
                )
                if has_error:
                    self._terminal[scenario] = decision
                decisions.append(decision)
                continue
            halfwidth = self._halfwidth(scenario, done)
            converged = (
                not math.isnan(halfwidth)
                and halfwidth <= self.config.ci_threshold
            )
            if converged:
                action, new_seeds = "converged", ()
            elif len(issued) >= self.config.max_seeds:
                action, new_seeds = "capped", ()
            else:
                budget = self.config.max_seeds - len(issued)
                new_seeds = extension_seeds(
                    issued, min(self.config.seed_batch, budget)
                )
                action = "extended"
                self.queue.enqueue(
                    [
                        SweepJob(
                            scenario=scenario,
                            job=SimulationJob(
                                self.queue.config_for(scenario),
                                method,
                                seed,
                            ),
                        )
                        for method in self.queue.spec.methods
                        for seed in new_seeds
                    ]
                )
            decision = AdaptiveDecision(
                scenario=scenario,
                action=action,
                seeds_done=done,
                halfwidth=halfwidth,
                new_seeds=tuple(new_seeds),
            )
            if action in ("converged", "capped"):
                self._terminal[scenario] = decision
            decisions.append(decision)
        return decisions

    def enqueued(self, decisions: list[AdaptiveDecision]) -> int:
        """How many jobs a set of decisions added to the queue."""
        return sum(
            len(d.new_seeds) * len(self.queue.spec.methods)
            for d in decisions
            if d.action == "extended"
        )
