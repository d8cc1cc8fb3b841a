"""The mediator simulation engine.

A mono-mediator discrete-event simulation of the paper's evaluation
environment (Section 6.1): consumers issue queries in a Poisson process;
for each query the mediator gathers the candidate set, collects the
consumer's and providers' intentions (lines 2-5 of Algorithm 1), hands
the decision to the configured allocation method, and updates queues,
utilisation, and the satisfaction model.  Metrics are sampled on a fixed
grid; with autonomy enabled, departure thresholds are checked
periodically after a warmup.

Because provider service is deterministic (FIFO queues with known
capacity), query completions are computed at assignment time and the
event loop reduces to a single ordered pass over arrivals — no event
heap is needed, which keeps the pure-Python hot path tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.allocation.base import AllocationMethod, AllocationRequest
from repro.allocation.registry import build_method
from repro.audit.recorder import get_audit
from repro.core.intentions import (
    consumer_intention_vector,
    provider_intention_vector,
)
from repro.model import metrics
from repro.model.consumer_profile import query_adequation, query_satisfaction
from repro.model.strategic import StrategicReporting
from repro.simulation.capacity import assign_capacities
from repro.simulation.config import SimulationConfig
from repro.simulation.departures import DeparturePolicy, DepartureRecord
from repro.simulation.faults import compile_fault_events
from repro.simulation.matchmaking import Matchmaker, UniversalMatchmaker
from repro.simulation.participants import ConsumerPool, ProviderPool
from repro.simulation.preferences import (
    build_consumer_preferences,
    build_provider_preferences,
)
from repro.simulation.queries import QueryFactory
from repro.simulation.queueing import ProviderQueues
from repro.simulation.reputation import ReputationRegistry
from repro.simulation.rng import RngFactory
from repro.simulation.stats import TimeSeriesCollector
from repro.simulation.utilization import UtilizationTracker
from repro.simulation.workload import PoissonArrivals
from repro.telemetry.registry import get_telemetry

__all__ = [
    "ENGINE_VERSION",
    "MediatorSimulation",
    "SimulationResult",
    "run_simulation",
]

#: Version tag of the simulation semantics.  The persistent result
#: store (``repro.experiments.store``) mixes this into its cache keys,
#: so bumping it invalidates every cached run.  Bump whenever a change
#: alters the numbers a simulation produces for the same
#: (config, method, seed) — not for pure refactors.
ENGINE_VERSION = "1"

#: Hot-path phases, in execution order, as the engine reports them to
#: ``on_phase``.  ``arrival`` covers the consumer draw and query
#: construction (``create_traced`` on a replay); the other four
#: partition :meth:`MediatorSimulation._dispatch`.
ENGINE_PHASES = (
    "arrival",
    "candidate_lookup",
    "scoring",
    "ranking",
    "log_push",
)

#: Query-class sentinel for an arrival that issued no query (its
#: consumer had departed); recorded traces store it as such.
SKIPPED = -1

#: Feed the dispatch-latency quantile timer every Nth served query.
#: The stride is a deterministic counter — never an RNG draw — so
#: sampling cannot perturb the simulation's random streams.
_DISPATCH_SAMPLE_STRIDE = 8


def _finite_values(values: np.ndarray) -> np.ndarray:
    """The finite entries of ``values`` (one ``isfinite`` scan).

    ``_sample`` needs both the mean and the fairness of several sampled
    vectors; sharing the compressed finite array between them halves the
    ``isfinite`` scans per sample.
    """
    return values[np.isfinite(values)]


def _mean_of_finite(finite: np.ndarray) -> float:
    """Mean of an already-compressed finite array; NaN when empty."""
    if finite.size == 0:
        return float("nan")
    return float(finite.mean())


def _fairness_of_finite(finite: np.ndarray) -> float:
    if finite.size == 0:
        return float("nan")
    return metrics.fairness(finite)


def _finite_mean(values: np.ndarray) -> float:
    """Mean over finite entries; NaN when none remain."""
    return _mean_of_finite(_finite_values(values))


def _read_only(value):
    """``value``, as a view that refuses writes if it is an array (the
    array itself keeps its flags)."""
    if isinstance(value, np.ndarray):
        value = value.view()
        value.flags.writeable = False
    return value


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    Attributes
    ----------
    method_name, seed, config:
        Provenance of the run.
    collector:
        The sampled time series (see the engine's ``_sample`` for the
        series catalogue).
    departures:
        Every departure, in order, with reasons and provider classes.
    queries_issued / queries_served / queries_unserved:
        Issue counters.  Unserved means no active capable provider
        existed at arrival time (only possible with autonomy).
    response_time_mean / response_time_post_warmup:
        Consumer-observed response time averages over the whole run and
        over the post-warmup portion.
    final:
        Named end-of-run arrays (per-provider/consumer characteristics,
        classes, activity) for distributional analysis.
    initial_providers / initial_consumers:
        The run's initial population sizes, recorded explicitly so the
        departure fractions are always taken over the population the
        run actually started with (0 falls back to the config sizes for
        results built by hand).
    """

    method_name: str
    seed: int
    config: SimulationConfig
    collector: TimeSeriesCollector
    departures: list[DepartureRecord] = field(default_factory=list)
    queries_issued: int = 0
    queries_served: int = 0
    queries_unserved: int = 0
    response_time_mean: float = float("nan")
    response_time_post_warmup: float = float("nan")
    final: dict[str, np.ndarray] = field(default_factory=dict)
    initial_providers: int = 0
    initial_consumers: int = 0

    def times(self) -> np.ndarray:
        return self.collector.times()

    def series(self, name: str) -> np.ndarray:
        return self.collector.series(name)

    def _departure_fraction(self, kind: str, initial: int) -> float:
        departed = {d.index for d in self.departures if d.kind == kind}
        if not departed:
            return 0.0
        return len(departed) / initial

    def provider_departure_fraction(self) -> float:
        """Fraction of the run's *initial* provider population that left.

        Counts distinct providers (a participant can only leave once)
        over the population the run started with, so the fraction always
        agrees with ``1 - final["provider_active"].mean()``.
        """
        initial = self.initial_providers or self.config.n_providers
        return self._departure_fraction("provider", initial)

    def consumer_departure_fraction(self) -> float:
        """Fraction of the run's *initial* consumer population that left."""
        initial = self.initial_consumers or self.config.n_consumers
        return self._departure_fraction("consumer", initial)


class MediatorSimulation:
    """One configured run: an environment, a method, and a seed.

    Parameters
    ----------
    config:
        The environment (populations, workload, autonomy, ...).
    method:
        An :class:`~repro.allocation.base.AllocationMethod` instance or a
        registry name (``"sqlb"``, ``"capacity"``, ``"mariposa"``, ...).
    seed:
        Root seed; the run is fully deterministic given (config, method,
        seed).
    matchmaker:
        Candidate-set source; defaults to the paper's universal
        matchmaker (every provider can treat every query).
    observers:
        Objects watching the run, such as the trace recorder
        (:mod:`repro.simulation.trace`).  An observer defines only the
        hooks it needs, with no base class; the engine binds them once,
        here, with the telemetry phase timer and the decision audit
        appended when enabled.  In call order:

        * ``on_run_start(sim)``;
        * ``on_phase(name)`` at each phase boundary: the
          :data:`ENGINE_PHASES` name that begins, ``None`` when the
          arrival's timed stretch ends;
        * ``on_arrival(time, consumer, klass)`` for every arrival,
          ``klass`` :data:`SKIPPED` when nothing issued;
        * ``on_unserved()`` when an issued query finds no candidate;
        * ``on_decision(request, positions, adequation, satisfaction,
          cache_hit)`` after a served query's log push, with the
          request the method saw and its chosen positions;
        * ``on_run_end(sim)`` once the result is built.

        Arrays reach observers as read-only views and the request's
        ``rng`` as ``None``, so an observer can change nothing in the
        run.  With no observer a run reads no clock.
    """

    def __init__(
        self,
        config: SimulationConfig,
        method: AllocationMethod | str,
        seed: int = 0,
        matchmaker: Matchmaker | None = None,
        observers=(),
    ) -> None:
        self.config = config
        if isinstance(method, str):
            method = build_method(method, config)
        self.method = method
        self.seed = int(seed)
        self._matchmaker = matchmaker or UniversalMatchmaker()

        rngs = RngFactory(seed)
        self._rng_environment = rngs.get("environment")
        self._rng_workload = rngs.get("workload")
        self._rng_provider_prefs = rngs.get("provider_preferences")
        self._rng_method = rngs.get("method")
        self._rng_queries = rngs.get("queries")
        # The adversarial dimensions request their streams only when
        # configured: an unconfigured feature must not shift the spawn
        # order of the five streams above (bit-identity with the
        # pre-fault engine), and both streams are consumed entirely at
        # setup, so stream *order* between the two is immaterial.
        self._fault_events = (
            ()
            if config.faults is None
            else compile_fault_events(
                config.faults,
                config.duration,
                config.n_providers,
                rngs.get("faults"),
            )
        )
        self._fault_cursor = 0
        self._fault_down: set[int] = set()
        self._strategic = (
            None
            if config.strategic is None
            else StrategicReporting(
                config.strategic, config.n_providers, rngs.get("strategic")
            )
        )

        # --- environment ---------------------------------------------
        self.capacity = assign_capacities(
            config.n_providers, config.capacity, self._rng_environment
        )
        self.consumer_prefs = build_consumer_preferences(
            config.n_consumers,
            config.n_providers,
            config.consumer_interest,
            self._rng_environment,
        )
        self.provider_prefs = build_provider_preferences(
            config.n_providers,
            len(config.query_classes.costs),
            config.provider_adaptation,
            config.provider_pref_mode,
            self._rng_provider_prefs,
        )
        self.reputation = ReputationRegistry(
            config.n_providers,
            initial=self._rng_environment.uniform(
                0.05, 1.0, config.n_providers
            ),
        )

        # --- live state ------------------------------------------------
        self.consumers = ConsumerPool(
            config.n_consumers,
            config.consumer_memory,
            config.initial_satisfaction,
        )
        self.providers = ProviderPool(
            config.n_providers,
            config.provider_memory,
            config.initial_satisfaction,
            warm_start_entries=config.warm_start_entries,
        )
        self.queues = ProviderQueues(self.capacity.rates)
        self.utilization = UtilizationTracker(
            self.capacity.rates,
            config.utilization_window,
            config.utilization_bins,
        )
        self._departure_policy = DeparturePolicy(
            config.departures,
            interest_classes=self.consumer_prefs.interest_classes,
            adaptation_classes=self.provider_prefs.adaptation_classes,
            capacity_classes=self.capacity.classes,
            warm_start_entries=config.warm_start_entries,
        )
        self._factory = QueryFactory(
            config.query_classes, config.queries_per_request, self._rng_queries
        )

        # --- hot-path caches and scratch buffers ------------------------
        # Candidate sets are constant between departures (the active mask
        # only changes in _check_departures), so they are cached per query
        # class and invalidated by comparing pool epochs.  Only matchmakers
        # that declare themselves a pure function of (query class, active
        # mask) participate — a custom matchmaker depending on anything
        # else stays on the uncached path.
        self._matchmaker_cacheable = bool(
            getattr(self._matchmaker, "cacheable_by_class", False)
        )
        self._candidate_cache: dict[int, np.ndarray] = {}
        self._candidate_epoch = -1
        # Scratch for the clipped consumer intentions Equation 1
        # averages, reused across arrivals.
        self._ci_clip_scratch = np.empty(config.n_providers, dtype=float)
        # Per consumer, (candidates, Equation 1 adequation) of its last
        # query; only "preference" mode intentions make it constant.
        self._adequation_memo: list | None = (
            [None] * config.n_consumers
            if config.consumer_intention_mode == "preference"
            else None
        )

        # Plain-int cache tallies: cheap, and they never feed back into
        # the run (telemetry and the audit's cache_hit read them).
        self._candidate_hits = 0
        self._candidate_misses = 0

        # --- observers --------------------------------------------------
        # Each hook is bound once to the tuple of the observers' methods
        # of that name, so a hook site with no observer is an empty loop.
        # Telemetry and the audit are resolved once per engine.
        observers = list(observers)
        telemetry = get_telemetry()
        if telemetry is not None:
            observers.append(_PhaseTimer(telemetry))
        audit = get_audit()
        if audit is not None:
            observers.append(audit)
        (self._on_run_start, self._on_phase, self._on_arrival,
         self._on_unserved, self._on_decision, self._on_run_end) = (
            tuple(getattr(o, hook) for o in observers if hasattr(o, hook))
            for hook in ("on_run_start", "on_phase", "on_arrival",
                         "on_unserved", "on_decision", "on_run_end")
        )

        # --- accounting -------------------------------------------------
        self._collector = TimeSeriesCollector()
        self._departures: list[DepartureRecord] = []
        # Running per-kind counts so sampling never rescans the full
        # departure list (that scan was O(samples × departures)).
        self._provider_departure_count = 0
        self._consumer_departure_count = 0
        self._queries_issued = 0
        self._queries_served = 0
        self._queries_unserved = 0
        self._response_sum = 0.0
        self._response_count = 0
        self._response_sum_post_warmup = 0.0
        self._response_count_post_warmup = 0
        self._interval_response_sum = 0.0
        self._interval_response_count = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full horizon and return the run's results.

        One loop serves live and replayed runs: the arrival source
        yields ``(time, consumer, klass)``, with ``consumer`` ``None`` on
        a live run, whose consumer and class are drawn here once the
        sample, departure and fault ladders have run.  The ladders run
        at every arrival instant, issued or not.
        """
        config = self.config
        self.method.reset()
        for hook in self._on_run_start:
            hook(self)
        if config.workload.kind == "trace":
            arrivals = self._trace_arrivals()
        else:
            arrivals = self._poisson_arrivals()
        next_sample = config.sample_interval
        next_check = config.warmup_time + config.departure_check_interval
        autonomy = self._autonomy_enabled()  # constant for the whole run
        faults = bool(self._fault_events)  # likewise constant
        active = self.consumers.active
        on_phase = self._on_phase

        for time, consumer, klass in arrivals:
            while next_sample <= time:
                if faults:
                    self._apply_faults_until(next_sample)
                self._sample(next_sample)
                next_sample += config.sample_interval
            while autonomy and next_check <= time:
                self._check_departures(next_check)
                next_check += config.departure_check_interval
            if faults:
                self._apply_faults_until(time)
            for hook in on_phase:
                hook("arrival")
            # A departed consumer issues nothing; its share of the
            # arrival process vanishes with it (Section 6.3.2: fewer
            # incoming queries after consumer departures).  A recorded
            # SKIPPED arrival issued nothing at recording time either.
            query = None
            if consumer is None:
                consumer = int(self._rng_queries.integers(config.n_consumers))
                if active[consumer]:
                    query = self._factory.create(consumer, time)
            elif klass != SKIPPED and active[consumer]:
                query = self._factory.create_traced(consumer, time, klass)
            for hook in self._on_arrival:
                hook(time, consumer, SKIPPED if query is None else query.klass)
            if query is None:
                for hook in on_phase:
                    hook(None)
            else:
                self._dispatch(query, time)

        while next_sample <= config.duration:
            if faults:
                self._apply_faults_until(next_sample)
            self._sample(next_sample)
            next_sample += config.sample_interval

        result = self._build_result()
        for hook in self._on_run_end:
            hook(self)
        return result

    def _poisson_arrivals(self):
        """The live arrival source: ``(time, None, None)`` per Poisson
        instant; the consumer and class are drawn later, in the loop."""
        config = self.config
        # Hoist the capacity/cost constants out of the per-candidate rate
        # evaluation; the expression keeps arrival_rate_at's exact
        # left-to-right arithmetic so the thinning stream is unchanged.
        total_capacity = config.total_capacity()
        mean_cost = config.query_classes.mean_cost
        workload = config.workload
        duration = config.duration

        def rate_at(time: float) -> float:
            return (
                workload.fraction_at(time, duration) * total_capacity / mean_cost
            )

        arrivals = PoissonArrivals(
            rate_at=rate_at,
            peak_rate=config.peak_arrival_rate(),
            duration=config.duration,
            rng=self._rng_workload,
            # A fixed workload's rate always equals the peak, so every
            # candidate is accepted and the per-candidate rate evaluation
            # can be skipped (the thinning draw itself is kept).
            constant_rate=workload.kind == "fixed",
        )
        return zip(arrivals, repeat(None), repeat(None))

    def _trace_arrivals(self):
        """The replay arrival source: the recorded stream, verbatim.

        The workload and query streams are bypassed *wholesale*: every
        arrival time, issuing consumer, and query class comes from the
        trace file, so two replays of one trace under different methods
        see literally the same query sequence (paired comparison with
        zero arrival-process variance).  Recorded :data:`SKIPPED`
        arrivals still run the ladders at their instants, which is what
        makes a recording-method replay byte-identical.
        """
        # Local import: trace.py imports this module for recording.
        from repro.simulation.trace import load_trace

        config = self.config
        trace = load_trace(
            config.workload.trace_path,
            expected_digest=config.workload.trace_digest,
        )
        self._check_trace_compatible(trace)
        return zip(
            trace.times.tolist(),
            trace.consumers.tolist(),
            trace.klasses.tolist(),
        )

    def _check_trace_compatible(self, trace) -> None:
        config = self.config
        mismatches = []
        if trace.n_consumers != config.n_consumers:
            mismatches.append(
                f"consumers {trace.n_consumers} != {config.n_consumers}"
            )
        if trace.n_providers != config.n_providers:
            mismatches.append(
                f"providers {trace.n_providers} != {config.n_providers}"
            )
        if trace.duration != config.duration:
            mismatches.append(
                f"duration {trace.duration} != {config.duration}"
            )
        if tuple(trace.query_costs) != tuple(config.query_classes.costs):
            mismatches.append(
                f"query costs {tuple(trace.query_costs)} != "
                f"{tuple(config.query_classes.costs)}"
            )
        if mismatches:
            raise ValueError(
                "trace was recorded against a different environment: "
                + "; ".join(mismatches)
            )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _apply_faults_until(self, time: float) -> None:
        """Apply every compiled fault event scheduled at or before ``time``.

        Events take effect at the first engine event (arrival or sample)
        at or after their scheduled time — exact sub-interval timing is
        below the fidelity of the simulation's sampled outputs.
        """
        events = self._fault_events
        cursor = self._fault_cursor
        while cursor < len(events) and events[cursor].time <= time:
            self._apply_fault_event(events[cursor])
            cursor += 1
        self._fault_cursor = cursor

    def _apply_fault_event(self, event) -> None:
        providers = self.providers
        if event.action == "down":
            for index in event.providers:
                # Permanently-departed providers stay departed; already
                # fault-downed providers (overlapping windows) are not
                # double-claimed, so the first recovery restores them.
                if providers.active[index] and index not in self._fault_down:
                    providers.deactivate(index)
                    self._fault_down.add(index)
        else:
            for index in event.providers:
                # Only providers *this* layer took down come back — an
                # autonomy departure is never reversed by a recovery.
                if index in self._fault_down:
                    providers.reactivate(index)
                    self._fault_down.discard(index)

    # ------------------------------------------------------------------
    # per-query processing
    # ------------------------------------------------------------------

    def _candidate_entry(self, query) -> tuple[np.ndarray, np.ndarray]:
        """(candidates, their capacities) for ``query``, cached between
        departures.

        Invariant: for a cacheable matchmaker the cached array always
        equals ``matchmaker.candidates(query, active)`` recomputed fresh
        — the cache is keyed by query class and dropped whenever the
        provider pool's epoch (bumped on every ``deactivate``) moves.
        The capacity gather rides along because it depends only on the
        candidate set.  Callers must treat both arrays as read-only.
        """
        if not self._matchmaker_cacheable:
            self._candidate_misses += 1
            candidates = self._fetch_candidates(query)
            return candidates, self.capacity.rates[candidates]
        epoch = self.providers.epoch
        if epoch != self._candidate_epoch:
            self._candidate_cache.clear()
            self._candidate_epoch = epoch
        entry = self._candidate_cache.get(query.klass)
        if entry is None:
            self._candidate_misses += 1
            candidates = self._fetch_candidates(query)
            # Class-independent matchmakers (the universal one) produce
            # the same candidate set for every class; reusing the first
            # equal entry keeps one array *object* per epoch, which the
            # downstream identity-keyed caches (preference bands,
            # utilization denominators, ring-log lockstep) rely on to
            # hit across query classes.
            for existing in self._candidate_cache.values():
                if np.array_equal(existing[0], candidates):
                    entry = existing
                    break
            else:
                entry = (candidates, self.capacity.rates[candidates])
            self._candidate_cache[query.klass] = entry
        else:
            self._candidate_hits += 1
        return entry

    def _fetch_candidates(self, query) -> np.ndarray:
        """``matchmaker.candidates`` for ``query``, refused if malformed.

        Everything downstream relies on the :class:`Matchmaker`
        contract: a 1-D integer array of active providers, strictly
        increasing.  A duplicate in particular would silently corrupt
        the ring logs' running sums, so a matchmaker breaking the
        contract fails here, on every fetch (once per cache miss for
        cacheable matchmakers).
        """
        active = self.providers.active
        candidates = self._matchmaker.candidates(query, active)
        name = type(self._matchmaker).__name__
        if not (
            isinstance(candidates, np.ndarray)
            and candidates.ndim == 1
            and candidates.dtype.kind in "iu"
        ):
            raise ValueError(
                f"matchmaker {name} must return a 1-D integer array, "
                f"got {candidates!r}"
            )
        if candidates.size == 0:
            return candidates
        if not bool((candidates[1:] > candidates[:-1]).all()):
            raise ValueError(
                f"matchmaker {name} returned candidates that are not "
                f"strictly increasing (unsorted or duplicated): {candidates}"
            )
        if candidates[0] < 0 or candidates[-1] >= active.size:
            raise ValueError(
                f"matchmaker {name} returned candidates outside "
                f"[0, {active.size}): {candidates}"
            )
        if not bool(active[candidates].all()):
            raise ValueError(
                f"matchmaker {name} returned inactive providers "
                f"{candidates[~active[candidates]]}"
            )
        return candidates

    def _candidates(self, query) -> np.ndarray:
        """The candidate set for ``query`` (see :meth:`_candidate_entry`)."""
        return self._candidate_entry(query)[0]

    def _dispatch(self, query, time: float) -> None:
        """Mediate one issued query (Algorithm 1 body)."""
        config = self.config
        consumer = query.consumer
        on_phase = self._on_phase
        self._queries_issued += 1
        for hook in on_phase:
            hook("candidate_lookup")
        hits = self._candidate_hits
        candidates, capacities = self._candidate_entry(query)
        if candidates.size == 0:
            self._queries_unserved += 1
            for hook in on_phase:
                hook(None)
            for hook in self._on_unserved:
                hook()
            return
        for hook in on_phase:
            hook("scoring")

        self.utilization.advance(time)
        utilizations = self.utilization.utilization_of(candidates)
        provider_preferences = self.provider_prefs.draw(
            candidates, query.klass
        )
        # Strategic providers distort what they *report*; their private
        # satisfaction (record_proposals below) is judged against the
        # truthful draw.  reported is provider_preferences itself when
        # no strategic spec is configured.
        if self._strategic is not None:
            reported_preferences = self._strategic.report(
                candidates, provider_preferences
            )
        else:
            reported_preferences = provider_preferences
        if config.fixed_provider_satisfaction is not None:
            provider_pref_satisfaction = np.full(
                candidates.size, config.fixed_provider_satisfaction
            )
        else:
            provider_pref_satisfaction = self.providers.satisfactions_of(
                candidates, "preference"
            )
        provider_intentions = provider_intention_vector(
            reported_preferences,
            utilizations,
            provider_pref_satisfaction,
            epsilon=config.epsilon,
        )
        consumer_intentions = self._consumer_intentions(consumer, candidates)

        consumer_satisfaction = self.consumers.satisfaction_of(consumer)
        provider_satisfactions = self.providers.satisfactions_of(
            candidates, "intention"
        )

        # Bypass the frozen-dataclass __init__ (twelve object.__setattr__
        # calls per query); the instance is indistinguishable from a
        # normally-constructed AllocationRequest.
        request = AllocationRequest.__new__(AllocationRequest)
        request.__dict__.update(
            time=time,
            query=query,
            candidates=candidates,
            consumer_intentions=consumer_intentions,
            provider_intentions=provider_intentions,
            provider_preferences=reported_preferences,
            utilizations=utilizations,
            capacities=capacities,
            backlog_seconds=self.queues.backlog_seconds_of(candidates, time),
            consumer_satisfaction=consumer_satisfaction,
            provider_satisfactions=provider_satisfactions,
            rng=self._rng_method,
        )
        for hook in on_phase:
            hook("ranking")

        positions = np.asarray(self.method.select(request), dtype=np.int64)
        position = self._validate_selection(positions, request)
        for hook in on_phase:
            hook("log_push")

        # At q.n = 1 (every experiment of the paper) the one chosen
        # provider travels as a Python int and its figures as floats.
        if position is not None:
            selected = candidates.item(position)
        else:
            selected = candidates[positions]
        completions = self.queues.assign(selected, query.cost_units, time)
        response = self.queues.response_time(completions, time)
        self._record_response(response, time)
        self.utilization.assign(selected, query.cost_units, assume_unique=True)

        # --- satisfaction model updates -------------------------------
        adequation = self._query_adequation(
            consumer, candidates, consumer_intentions
        )
        # Equation 2 reads only the chosen intentions: clip those alone,
        # as Python floats (the comparisons are the min/max clip).
        if position is not None:
            value = consumer_intentions.item(position)
            chosen = -1.0 if value < -1.0 else 1.0 if value > 1.0 else value
        else:
            chosen = [
                -1.0 if value < -1.0 else 1.0 if value > 1.0 else value
                for value in consumer_intentions[positions].tolist()
            ]
        satisfaction = query_satisfaction(chosen, query.n_desired)
        self.consumers.record_query(consumer, adequation, satisfaction)
        self.providers.record_proposals(
            candidates,
            intentions=provider_intentions,
            preferences=provider_preferences,
            performed_at=positions,
        )
        self._queries_served += 1
        for hook in on_phase:
            hook(None)
        if self._on_decision:
            # After the timed stretch, so observing never skews the
            # phases.  Observers see read-only views, and not the
            # method-private generator: they can change nothing.
            seen = AllocationRequest.__new__(AllocationRequest)
            for name, value in request.__dict__.items():
                seen.__dict__[name] = _read_only(value)
            seen.__dict__["rng"] = None
            chosen = _read_only(positions)
            cache_hit = self._candidate_hits > hits
            for hook in self._on_decision:
                hook(seen, chosen, adequation, satisfaction, cache_hit)

    def _consumer_intentions(
        self, consumer: int, candidates: np.ndarray
    ) -> np.ndarray:
        config = self.config
        preferences = self.consumer_prefs.for_consumer(consumer, candidates)
        if config.consumer_intention_mode == "preference":
            # The paper's experimental setting: υ = 1, intentions are
            # exactly the consumer's preferences.  ``for_consumer``
            # gathers with an index array, so this is already a fresh
            # array — no defensive copy needed.
            return preferences
        return consumer_intention_vector(
            preferences,
            self.reputation.of(candidates),
            upsilon=config.upsilon,
            epsilon=config.epsilon,
        )

    def _query_adequation(
        self, consumer: int, candidates: np.ndarray, intentions: np.ndarray
    ) -> float:
        """Equation 1 for one issued query, memoized where it is constant.

        In ``"preference"`` mode a consumer's intentions towards a
        candidate set are a fixed row of the preference matrix, so the
        adequation only changes with the candidate set; the memo keys
        it on the identity of the (cached, read-only) candidate array,
        as the preference-band and utilization-denominator caches do.
        """
        memo = self._adequation_memo
        if memo is not None:
            entry = memo[consumer]
            if entry is not None and entry[0] is candidates:
                return entry[1]
        # min/max pair == np.clip without its dispatch wrapper, into
        # preallocated scratch.
        clipped = self._ci_clip_scratch[: candidates.size]
        np.maximum(intentions, -1.0, out=clipped)
        np.minimum(clipped, 1.0, out=clipped)
        adequation = query_adequation(clipped)
        if memo is not None:
            memo[consumer] = (candidates, adequation)
        return adequation

    @staticmethod
    def _validate_selection(
        positions: np.ndarray, request: AllocationRequest
    ) -> int | None:
        """Refuse a malformed selection; the position as an ``int`` when
        exactly one provider is selected, else ``None``."""
        expected = request.n_to_select
        if positions.size != expected:
            raise ValueError(
                f"method {request.query.qid}: selected {positions.size} "
                f"providers, expected {expected}"
            )
        if positions.size == 1:
            # Fast path for the paper's q.n = 1: no duplicate check (a
            # singleton cannot repeat) and scalar range comparisons.
            position = positions.item(0)
            if position < 0 or position >= request.n_candidates:
                raise ValueError("selection out of candidate range")
            return position
        if positions.size and (
            positions.min() < 0 or positions.max() >= request.n_candidates
        ):
            raise ValueError("selection out of candidate range")
        if np.unique(positions).size != positions.size:
            raise ValueError("selection contains duplicates")

    def _record_response(self, response: float, time: float) -> None:
        self._response_sum += response
        self._response_count += 1
        self._interval_response_sum += response
        self._interval_response_count += 1
        if time >= self.config.warmup_time:
            self._response_sum_post_warmup += response
            self._response_count_post_warmup += 1

    # ------------------------------------------------------------------
    # sampling and departures
    # ------------------------------------------------------------------

    def _autonomy_enabled(self) -> bool:
        rules = self.config.departures
        return rules.consumers_may_leave or bool(rules.provider_reasons)

    def _check_departures(self, time: float) -> None:
        self.utilization.advance(time)
        optimal = self.config.optimal_utilization_at(time)
        records = self._departure_policy.check_providers(
            time,
            self.providers,
            self.utilization.utilization(),
            optimal,
        )
        records.extend(
            self._departure_policy.check_consumers(time, self.consumers)
        )
        self._departures.extend(records)
        for record in records:
            if record.kind == "provider":
                self._provider_departure_count += 1
            else:
                self._consumer_departure_count += 1

    def _sample(self, time: float) -> None:
        self.utilization.advance(time)
        active_p = self.providers.active
        active_c = self.consumers.active

        sample: dict[str, float] = {
            "workload_fraction": self.config.workload.fraction_at(
                time, self.config.duration
            ),
            "active_providers": float(active_p.sum()),
            "active_consumers": float(active_c.sum()),
            "provider_departures_cumulative": float(
                self._provider_departure_count
            ),
            "consumer_departures_cumulative": float(
                self._consumer_departure_count
            ),
        }

        utilization = self.utilization.utilization()
        if active_p.any():
            ut_finite = _finite_values(utilization[active_p])
            sample["utilization_mean"] = _mean_of_finite(ut_finite)
            sample["utilization_fairness"] = _fairness_of_finite(ut_finite)
        else:
            sample["utilization_mean"] = float("nan")
            sample["utilization_fairness"] = float("nan")

        for basis in ("intention", "preference"):
            # The satisfaction vector feeds both the mean and the
            # fairness, so its finite mask is computed once and shared.
            sat_finite = _finite_values(
                self.providers.satisfactions(basis)[active_p]
            )
            adq = self.providers.adequations(basis)[active_p]
            alloc = self.providers.allocation_satisfactions(basis)[active_p]
            prefix = f"provider_{basis}"
            sample[f"{prefix}_satisfaction_mean"] = _mean_of_finite(sat_finite)
            sample[f"{prefix}_adequation_mean"] = _finite_mean(adq)
            sample[f"{prefix}_allocation_satisfaction_mean"] = _finite_mean(
                alloc
            )
            sample[f"{prefix}_satisfaction_fairness"] = _fairness_of_finite(
                sat_finite
            )

        consumer_sat_finite = _finite_values(
            self.consumers.satisfactions()[active_c]
        )
        consumer_adq = self.consumers.adequations()[active_c]
        consumer_alloc = self.consumers.allocation_satisfactions()[active_c]
        sample["consumer_satisfaction_mean"] = _mean_of_finite(
            consumer_sat_finite
        )
        sample["consumer_adequation_mean"] = _finite_mean(consumer_adq)
        sample["consumer_allocation_satisfaction_mean"] = _finite_mean(
            consumer_alloc
        )
        sample["consumer_satisfaction_fairness"] = _fairness_of_finite(
            consumer_sat_finite
        )

        if self._interval_response_count:
            sample["response_time_mean"] = (
                self._interval_response_sum / self._interval_response_count
            )
        else:
            sample["response_time_mean"] = float("nan")
        self._interval_response_sum = 0.0
        self._interval_response_count = 0

        self._collector.add_sample(time, sample)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _build_result(self) -> SimulationResult:
        overall = (
            self._response_sum / self._response_count
            if self._response_count
            else float("nan")
        )
        post = (
            self._response_sum_post_warmup / self._response_count_post_warmup
            if self._response_count_post_warmup
            else float("nan")
        )
        final = {
            "provider_active": self.providers.active.copy(),
            "consumer_active": self.consumers.active.copy(),
            "provider_satisfaction_intention": self.providers.satisfactions(
                "intention"
            ),
            "provider_satisfaction_preference": self.providers.satisfactions(
                "preference"
            ),
            "provider_adequation_intention": self.providers.adequations(
                "intention"
            ),
            "provider_adequation_preference": self.providers.adequations(
                "preference"
            ),
            "consumer_satisfaction": self.consumers.satisfactions(),
            "consumer_adequation": self.consumers.adequations(),
            "utilization": self.utilization.utilization(),
            "capacity_classes": self.capacity.classes.copy(),
            "interest_classes": self.consumer_prefs.interest_classes.copy(),
            "adaptation_classes": self.provider_prefs.adaptation_classes.copy(),
            "completed_counts": self.queues.completed_counts(),
        }
        return SimulationResult(
            method_name=self.method.name,
            seed=self.seed,
            config=self.config,
            collector=self._collector,
            departures=self._departures,
            queries_issued=self._queries_issued,
            queries_served=self._queries_served,
            queries_unserved=self._queries_unserved,
            response_time_mean=overall,
            response_time_post_warmup=post,
            final=final,
            initial_providers=self.providers.size,
            initial_consumers=self.consumers.size,
        )


class _PhaseTimer:
    """The telemetry observer: per-phase engine time and the run span.

    The only clock reader in a run.  Each ``on_phase`` closes the
    running phase and opens the next; every
    ``_DISPATCH_SAMPLE_STRIDE``-th served query also feeds
    ``engine.dispatch_s`` (candidate lookup through log push).  Nothing
    is emitted until the run ends: the phase events first, while the run
    span is still open so they parent under it, then the engine
    counters, then the span itself.
    """

    def __init__(self, telemetry) -> None:
        self._telemetry = telemetry
        self._seconds = dict.fromkeys(ENGINE_PHASES, 0.0)
        self._phase: str | None = None
        self._mark = 0.0
        self._dispatch_started = 0.0
        self._served = 0
        self._span = 0
        self._started = 0.0

    def on_run_start(self, sim) -> None:
        self._span = self._telemetry.span_open("run", sim.method.name)
        self._started = perf_counter()

    def on_phase(self, name: str | None) -> None:
        now = perf_counter()
        phase = self._phase
        if phase is not None:
            self._seconds[phase] += now - self._mark
        if name == "candidate_lookup":
            self._dispatch_started = now
        elif phase == "log_push":
            self._served += 1
            if self._served % _DISPATCH_SAMPLE_STRIDE == 0:
                self._telemetry.observe(
                    "engine.dispatch_s", now - self._dispatch_started
                )
        self._phase = name
        self._mark = now

    def on_run_end(self, sim) -> None:
        telemetry = self._telemetry
        for name, seconds in self._seconds.items():
            telemetry.event("phase", name, duration_s=seconds)
        telemetry.count("engine.candidate_cache_hits", sim._candidate_hits)
        telemetry.count("engine.candidate_cache_misses", sim._candidate_misses)
        pushes = sim.consumers.push_stats()
        for kind, count in sim.providers.push_stats().items():
            pushes[kind] += count
        telemetry.count("engine.ring_uniform_pushes", pushes["uniform"])
        telemetry.count("engine.ring_scattered_pushes", pushes["scattered"])
        telemetry.count("engine.ring_scalar_pushes", pushes["scalar"])
        telemetry.count(
            "engine.view_rebuilds",
            sim.consumers.view_rebuilds + sim.providers.view_rebuilds,
        )
        telemetry.count("engine.queries_issued", sim._queries_issued)
        telemetry.count("engine.queries_served", sim._queries_served)
        telemetry.count("engine.queries_unserved", sim._queries_unserved)
        telemetry.span_close(
            self._span,
            "run",
            sim.method.name,
            perf_counter() - self._started,
            attrs={
                "method": sim.method.name,
                "seed": sim.seed,
                "queries_issued": sim._queries_issued,
                "queries_served": sim._queries_served,
            },
        )


def run_simulation(
    config: SimulationConfig,
    method: AllocationMethod | str,
    seed: int = 0,
    matchmaker: Matchmaker | None = None,
    observers=(),
) -> SimulationResult:
    """Convenience wrapper: build and run one simulation."""
    return MediatorSimulation(
        config, method, seed=seed, matchmaker=matchmaker, observers=observers
    ).run()
