"""Simulation configuration (Table 2 and Section 6.1 of the paper).

:class:`SimulationConfig` gathers every knob of the evaluation
environment: population sizes, the participants' memory sizes
(``conSatSize`` / ``proSatSize``), the heterogeneity class mixes for
consumer interest, provider adaptation, and provider capacity, the query
classes, the workload process, and the autonomy (departure) thresholds.

Three factory functions produce the configurations used throughout the
repository:

* :func:`paper_config` — the exact Table 2 parameters (200 consumers,
  400 providers, 10 000 simulated seconds).  Faithful but slow in pure
  Python (~1.5 M queries per run at 100 % workload).
* :func:`scaled_config` — the default for experiments and benchmarks:
  every *ratio* of the paper (class fractions, capacity ratios,
  window-to-arrival-rate ratios) at one fifth the population and a
  shorter horizon.
* :func:`tiny_config` — a seconds-fast configuration for unit and
  integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._checks import check_number
from repro.model.strategic import StrategicSpec
from repro.simulation.faults import FaultSpec

__all__ = [
    "CapacityClassMix",
    "ClassBand",
    "DepartureRules",
    "FaultSpec",
    "MariposaParams",
    "PreferenceClassMix",
    "QueryClassSpec",
    "SimulationConfig",
    "StrategicSpec",
    "WorkloadSpec",
    "paper_config",
    "scaled_config",
    "tiny_config",
]

#: Canonical names of the three heterogeneity bands used everywhere.
BAND_NAMES = ("low", "medium", "high")


@dataclass(frozen=True)
class ClassBand:
    """One heterogeneity band: a population fraction plus a value range."""

    fraction: float
    low: float
    high: float

    def __post_init__(self) -> None:
        check_number("ClassBand", "fraction", self.fraction, ge=0, le=1)
        check_number("ClassBand", "low", self.low)
        check_number("ClassBand", "high", self.high)
        if self.low > self.high:
            raise ValueError(
                f"band range is empty: low={self.low} > high={self.high}"
            )


@dataclass(frozen=True)
class PreferenceClassMix:
    """Three preference bands (low / medium / high) summing to 1.

    Used both for consumer interest in providers (Section 6.1: 60 % of
    providers are high-interest with preferences in [.34, 1], 30 % medium
    in [-.54, .34], 10 % low in [-1, -.54]) and for provider adaptation
    to queries (35 % high in [-.2, 1], 60 % medium in [-.6, .6], 5 % low
    in [-1, .2]).
    """

    low: ClassBand
    medium: ClassBand
    high: ClassBand

    def __post_init__(self) -> None:
        total = self.low.fraction + self.medium.fraction + self.high.fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"band fractions must sum to 1, got {total}")

    @property
    def bands(self) -> tuple[ClassBand, ClassBand, ClassBand]:
        """The bands in canonical (low, medium, high) order."""
        return (self.low, self.medium, self.high)

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.low.fraction, self.medium.fraction, self.high.fraction)


#: Consumer-interest mix of Section 6.1 (fractions are of *providers*).
CONSUMER_INTEREST_MIX = PreferenceClassMix(
    low=ClassBand(fraction=0.10, low=-1.0, high=-0.54),
    medium=ClassBand(fraction=0.30, low=-0.54, high=0.34),
    high=ClassBand(fraction=0.60, low=0.34, high=1.0),
)

#: Provider-adaptation mix of Section 6.1.
PROVIDER_ADAPTATION_MIX = PreferenceClassMix(
    low=ClassBand(fraction=0.05, low=-1.0, high=0.2),
    medium=ClassBand(fraction=0.60, low=-0.6, high=0.6),
    high=ClassBand(fraction=0.35, low=-0.2, high=1.0),
)


@dataclass(frozen=True)
class CapacityClassMix:
    """Provider capacity heterogeneity (Section 6.1, after [20]).

    10 % of providers are low-capacity, 60 % medium, 30 % high;
    high-capacity providers are 3× more powerful than medium and 7× more
    powerful than low.  ``high_rate`` fixes the absolute scale: treatment
    units per second of a high-capacity provider.  The paper's query
    costs (130 / 150 units performed in ~1.3 / 1.5 s at a high-capacity
    provider) pin ``high_rate = 100``.
    """

    fractions: tuple[float, float, float] = (0.10, 0.60, 0.30)
    high_rate: float = 100.0
    medium_ratio: float = 3.0
    low_ratio: float = 7.0

    def __post_init__(self) -> None:
        for fraction in self.fractions:
            check_number("CapacityClassMix", "fractions", fraction)
        check_number("CapacityClassMix", "high_rate", self.high_rate, gt=0)
        check_number("CapacityClassMix", "medium_ratio", self.medium_ratio)
        check_number("CapacityClassMix", "low_ratio", self.low_ratio)
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"capacity fractions must sum to 1, got {self.fractions}")
        if self.medium_ratio <= 1 or self.low_ratio <= self.medium_ratio:
            raise ValueError(
                "expected low_ratio > medium_ratio > 1, got "
                f"medium_ratio={self.medium_ratio}, low_ratio={self.low_ratio}"
            )

    @property
    def rates(self) -> tuple[float, float, float]:
        """(low, medium, high) capacity in treatment units per second."""
        return (
            self.high_rate / self.low_ratio,
            self.high_rate / self.medium_ratio,
            self.high_rate,
        )


@dataclass(frozen=True)
class QueryClassSpec:
    """The query classes of Section 6.1.

    Two classes consuming 130 and 150 treatment units at a high-capacity
    provider (≈1.3 s / 1.5 s there), drawn with equal probability unless
    weights say otherwise.
    """

    costs: tuple[float, ...] = (130.0, 150.0)
    weights: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if len(self.costs) != len(self.weights):
            raise ValueError("costs and weights must have the same length")
        if not self.costs:
            raise ValueError("at least one query class is required")
        for cost in self.costs:
            check_number("QueryClassSpec", "costs", cost, gt=0)
        for weight in self.weights:
            check_number("QueryClassSpec", "weights", weight, ge=0)
        if sum(self.weights) <= 0:
            raise ValueError(f"weights must not all be zero, got {self.weights}")

    @property
    def mean_cost(self) -> float:
        """Expected treatment units per query."""
        total = sum(self.weights)
        return sum(c * w for c, w in zip(self.costs, self.weights)) / total


@dataclass(frozen=True)
class WorkloadSpec:
    """The arrival process: Poisson with a time-varying target fraction.

    The paper's Figure 4(a)-(h) runs ramp the workload *uniformly* from
    30 % to 100 % of the total system capacity over the run; the
    response-time and autonomy experiments use fixed workloads.  Two
    further shapes extend the evaluation beyond the paper's grid:

    * ``burst`` — a flash crowd: the load sits at ``start_fraction``
      except inside the relative window ``[burst_start, burst_end)``
      (fractions of the horizon), where it jumps to ``burst_fraction``.
    * ``piecewise`` — piecewise-linear over breakpoints
      ``((relative_time, fraction), ...)`` spanning the whole horizon;
      expressive enough for diurnal load, sawtooths, or decay shapes.

    Workload fractions are relative to the *initial* total system
    capacity (departures do not change the demand).  ``burst`` and
    ``piecewise`` fractions may exceed 1 (overload stress).

    The fifth kind, ``trace``, replays a recorded arrival stream (see
    :mod:`repro.simulation.trace`): the engine reads every arrival time,
    consumer, and query class from the file at ``trace_path`` instead of
    drawing them, and ``trace_digest`` pins the exact bytes being
    replayed.  The shape fields carry the *recorded* workload (with its
    original kind in ``trace_base_kind``) so measurement-only reads like
    the sampled ``workload_fraction`` series and the optimal-utilisation
    rule still evaluate the shape the trace was produced under.
    """

    kind: str = "ramp"
    start_fraction: float = 0.30
    end_fraction: float = 1.00
    #: ``burst`` only: the elevated fraction and its relative window.
    burst_fraction: float | None = None
    burst_start: float | None = None
    burst_end: float | None = None
    #: ``piecewise`` only: ((relative_time, fraction), ...) breakpoints.
    points: tuple[tuple[float, float], ...] | None = None
    #: ``trace`` only: the trace file, its SHA-256, and the recorded
    #: workload's original kind (which the shape fields above describe).
    trace_path: str | None = None
    trace_digest: str | None = None
    trace_base_kind: str | None = None

    #: The parameters only one kind, or a trace recorded under it, sets.
    _KIND_PARAMETERS = {
        "trace": ("trace_path", "trace_digest", "trace_base_kind"),
        "burst": ("burst_fraction", "burst_start", "burst_end"),
        "piecewise": ("points",),
    }

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "ramp", "burst", "piecewise", "trace"):
            raise ValueError(
                "kind must be 'fixed', 'ramp', 'burst', 'piecewise', or "
                f"'trace', got {self.kind!r}"
            )
        if self.kind == "trace":
            self._validate_trace()
        shape = self._shape_kind()
        for kind, names in self._KIND_PARAMETERS.items():
            if kind not in (self.kind, shape) and any(
                getattr(self, name) is not None for name in names
            ):
                label = "points" if kind == "piecewise" else f"{kind}_* parameters"
                raise ValueError(
                    f"{label} are only valid for kind={kind!r}, not {self.kind!r}"
                )
        check_number("WorkloadSpec", "start_fraction", self.start_fraction, gt=0)
        check_number("WorkloadSpec", "end_fraction", self.end_fraction)
        if shape in ("fixed", "burst") and self.end_fraction != self.start_fraction:
            # One level (outside the window, for a burst): end_fraction is
            # pinned so equality and hashing behave.
            object.__setattr__(self, "end_fraction", self.start_fraction)
        if shape == "ramp" and self.end_fraction < self.start_fraction:
            raise ValueError("a ramp cannot decrease")
        elif shape == "burst":
            self._validate_burst()
        elif shape == "piecewise":
            self._validate_piecewise()

    def _shape_kind(self) -> str:
        """The load *shape* to evaluate: the recorded kind for traces."""
        return self.trace_base_kind if self.kind == "trace" else self.kind

    def _validate_trace(self) -> None:
        if not self.trace_path:
            raise ValueError("a trace workload needs trace_path")
        if not self.trace_digest:
            raise ValueError("a trace workload needs trace_digest")
        if self.trace_base_kind not in ("fixed", "ramp", "burst", "piecewise"):
            raise ValueError(
                "trace_base_kind must name the recorded workload's kind "
                "('fixed', 'ramp', 'burst', or 'piecewise'), "
                f"got {self.trace_base_kind!r}"
            )

    def _validate_burst(self) -> None:
        check_number("WorkloadSpec", "burst_fraction", self.burst_fraction, gt=0)
        if self.burst_start is None or self.burst_end is None:
            raise ValueError("a burst needs both burst_start and burst_end")
        if not 0.0 <= self.burst_start < self.burst_end <= 1.0:
            raise ValueError(
                "burst window must satisfy 0 <= burst_start < burst_end <= 1, "
                f"got [{self.burst_start}, {self.burst_end})"
            )

    def _validate_piecewise(self) -> None:
        if self.points is None or len(self.points) < 2:
            raise ValueError("piecewise needs at least two (time, fraction) points")
        for point in self.points:
            if len(point) != 2:
                raise ValueError(f"each point must be (time, fraction), got {point}")
        # Canonicalise to a tuple of float pairs so specs hash and
        # compare by value regardless of how the points were supplied.
        object.__setattr__(
            self,
            "points",
            tuple((float(t), float(v)) for t, v in self.points),
        )
        for time, value in self.points:
            check_number("WorkloadSpec", "points", time)
            check_number("WorkloadSpec", "points", value, gt=0)
        times = [t for t, _ in self.points]
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError(
                "piecewise points must span the whole horizon: first time "
                f"must be 0 and last must be 1, got {times[0]} and {times[-1]}"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"piecewise times must strictly increase, got {times}")
        # Pin the redundant scalars to the endpoint values so
        # fraction_at(0)/fraction_at(duration) match start/end as for
        # the other kinds.
        object.__setattr__(self, "start_fraction", self.points[0][1])
        object.__setattr__(self, "end_fraction", self.points[-1][1])

    @staticmethod
    def fixed(fraction: float) -> "WorkloadSpec":
        """A constant workload at ``fraction`` of total system capacity."""
        return WorkloadSpec(
            kind="fixed", start_fraction=fraction, end_fraction=fraction
        )

    @staticmethod
    def burst(
        base: float, peak: float, start: float, end: float
    ) -> "WorkloadSpec":
        """A flash crowd: ``base`` load, ``peak`` during ``[start, end)``.

        ``start`` and ``end`` are fractions of the run duration, so one
        spec describes the same *shape* at every horizon.
        """
        return WorkloadSpec(
            kind="burst",
            start_fraction=base,
            end_fraction=base,
            burst_fraction=peak,
            burst_start=start,
            burst_end=end,
        )

    @staticmethod
    def piecewise(
        points: tuple[tuple[float, float], ...]
    ) -> "WorkloadSpec":
        """Piecewise-linear load over ``((relative_time, fraction), ...)``."""
        canonical = tuple(
            (float(time), float(value)) for time, value in points
        )
        return WorkloadSpec(kind="piecewise", points=canonical)

    def fraction_at(self, time: float, duration: float) -> float:
        """Instantaneous workload fraction at ``time`` into a run."""
        shape = self._shape_kind()
        if shape == "fixed":
            return self.start_fraction
        if duration <= 0:
            return self.start_fraction
        progress = min(max(time / duration, 0.0), 1.0)
        if shape == "ramp":
            return self.start_fraction + progress * (
                self.end_fraction - self.start_fraction
            )
        if shape == "burst":
            if self.burst_start <= progress < self.burst_end:
                return self.burst_fraction
            return self.start_fraction
        # piecewise: linear interpolation between the bracketing points.
        points = self.points
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if progress <= t1:
                span = t1 - t0
                return v0 + (progress - t0) / span * (v1 - v0)
        return points[-1][1]  # pragma: no cover - progress is clamped to 1

    def peak_fraction(self, duration: float) -> float:
        """Upper bound of ``fraction_at`` over the horizon.

        Used for the Poisson thinning envelope.  For ``fixed``/``ramp``
        this evaluates the endpoints exactly as
        :meth:`SimulationConfig.peak_arrival_rate` historically did, so
        existing numerics are bit-identical.
        """
        shape = self._shape_kind()
        if shape in ("fixed", "ramp"):
            return max(
                self.fraction_at(0.0, duration),
                self.fraction_at(duration, duration),
            )
        if shape == "burst":
            return max(self.start_fraction, self.burst_fraction)
        return max(value for _, value in self.points)


@dataclass(frozen=True)
class DepartureRules:
    """Section 6.3.2's autonomy thresholds.

    * A consumer leaves by dissatisfaction when ``δs(c) < δa(c)``.
    * A provider leaves by dissatisfaction when
      ``δs(p) < δa(p) - dissatisfaction_margin`` (0.15 in the paper),
      by starvation when ``Ut(p) < starvation_fraction ×`` optimal
      utilisation (20 %), and by overutilisation when ``Ut(p) >
      overutilization_fraction ×`` optimal utilisation (220 %).
    * The optimal utilisation of a provider equals the current workload
      fraction (the paper: at 80 % workload the optimal utilisation is
      0.8).

    ``provider_reasons`` selects which reasons are *enabled* (Figure 5(a)
    disables overutilisation; captive runs disable everything).
    """

    consumers_may_leave: bool = False
    provider_reasons: tuple[str, ...] = ()
    dissatisfaction_margin: float = 0.15
    starvation_fraction: float = 0.20
    overutilization_fraction: float = 2.20
    #: Physical floor under the relative overutilisation threshold: a
    #: provider with utilisation below 1 has idle capacity and cannot be
    #: "overutilised" no matter how small 220 % of the current optimal
    #: is (at a 20 % workload the relative threshold alone would be
    #: 0.44).  The departure trigger is
    #: ``Ut > max(overutilization_fraction × optimal, floor)``.
    overutilization_floor: float = 1.0
    #: A threshold must trip at this many *consecutive* checks before
    #: the participant actually leaves.  The paper says participants
    #: "support high degrees" of dissatisfaction/starvation/
    #: overutilisation; with short satisfaction windows the raw
    #: characteristics fluctuate query to query, and an instantaneous
    #: rule would evict everyone on transient noise.  Persistence keeps
    #: departures tied to *chronic* punishment — which is exactly the
    #: condition SQLB's feedback loop is designed to correct.
    persistence: int = 3
    #: Streak length for the consumers' strict ``δs < δa`` rule.  Kept
    #: as a separate knob because the consumer signal (a window over
    #: *issued* queries) decorrelates on a different timescale than the
    #: provider signal (a window over every proposed query).
    consumer_persistence: int = 3
    #: Which satisfaction basis providers use for their own decision.
    #: They know their private preferences, so "preference" is the
    #: faithful default; "intention" is available for ablations.
    provider_basis: str = "preference"

    _VALID_REASONS = ("dissatisfaction", "starvation", "overutilization")

    def __post_init__(self) -> None:
        for reason in self.provider_reasons:
            if reason not in self._VALID_REASONS:
                raise ValueError(
                    f"unknown provider departure reason {reason!r}; "
                    f"valid: {self._VALID_REASONS}"
                )
        if self.provider_basis not in ("preference", "intention"):
            raise ValueError(
                f"provider_basis must be 'preference' or 'intention', "
                f"got {self.provider_basis!r}"
            )
        owner = "DepartureRules"
        for name in ("dissatisfaction_margin", "overutilization_floor"):
            check_number(owner, name, getattr(self, name), ge=0)
        for name in ("persistence", "consumer_persistence"):
            check_number(owner, name, getattr(self, name), gt=0, integer=True)
        check_number(owner, "starvation_fraction", self.starvation_fraction, gt=0, lt=1)
        check_number(
            owner, "overutilization_fraction", self.overutilization_fraction, gt=1
        )

    @staticmethod
    def captive() -> "DepartureRules":
        """Nobody may leave (Section 6.3.1's first experiment series)."""
        return DepartureRules()

    @staticmethod
    def autonomous(include_overutilization: bool = True) -> "DepartureRules":
        """Everyone may leave (Section 6.3.2).

        ``include_overutilization=False`` reproduces the Figure 5(a)
        series where providers leave only by dissatisfaction or
        starvation.
        """
        reasons = ["dissatisfaction", "starvation"]
        if include_overutilization:
            reasons.append("overutilization")
        return DepartureRules(
            consumers_may_leave=True, provider_reasons=tuple(reasons)
        )


@dataclass(frozen=True)
class MariposaParams:
    """Knobs of the Mariposa-like baseline (Section 6.2.2).

    The paper describes the method qualitatively; see DESIGN.md §2.3 for
    the substitution rationale.  A provider's base bid decreases with its
    preference for the query (an interested provider bids lower) and is
    multiplied by its load factor (``bid × load``); the broker accepts
    the cheapest bids whose estimated delay stays under the consumer's
    bid curve, falling back to cheapest-overall when none qualify.
    """

    #: Bid at preference -1 (most expensive) is base_spread times the
    #: bid at preference +1 (cheapest).
    base_spread: float = 2.5
    #: The load multiplier is (1 + load_weight × Ut).  The paper calls
    #: Mariposa's load balancing "crude"; a low weight reproduces the
    #: reported concentration on the most adapted providers.
    load_weight: float = 0.3
    #: The consumer's bid curve: maximum acceptable estimated delay in
    #: seconds (price budget is taken as unconstrained).
    max_delay: float = 60.0

    def __post_init__(self) -> None:
        check_number("MariposaParams", "base_spread", self.base_spread, gt=1)
        check_number("MariposaParams", "load_weight", self.load_weight, ge=0)
        check_number("MariposaParams", "max_delay", self.max_delay, gt=0)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that defines one simulated environment.

    Defaults follow Table 2 where the paper fixes a value; the population
    and horizon default to the *scaled* environment (see module
    docstring) — call :func:`paper_config` for the exact Table 2 scale.
    """

    # --- populations (Table 2) -------------------------------------
    n_consumers: int = 40
    n_providers: int = 80
    # --- participant memories (Table 2) ----------------------------
    consumer_memory: int = 200  # conSatSize: k last issued queries
    provider_memory: int = 500  # proSatSize: k last proposed queries
    initial_satisfaction: float = 0.5  # iniSatisfaction
    #: Synthetic neutral interactions pre-loaded into each provider's
    #: window so satisfaction starts at iniSatisfaction and *evolves*
    #: (they age out like real interactions).
    warm_start_entries: int = 1
    # --- environment heterogeneity (Section 6.1) -------------------
    consumer_interest: PreferenceClassMix = CONSUMER_INTEREST_MIX
    provider_adaptation: PreferenceClassMix = PROVIDER_ADAPTATION_MIX
    capacity: CapacityClassMix = CapacityClassMix()
    query_classes: QueryClassSpec = QueryClassSpec()
    #: "per_query": a provider redraws its preference for every incoming
    #: query from its adaptation band (the paper's literal reading);
    #: "per_query_class": one draw per (provider, query class), fixed.
    provider_pref_mode: str = "per_query"
    # --- intention computation (Section 5) -------------------------
    epsilon: float = 1.0
    upsilon: float = 1.0  # υ = 1 in the paper's experiments
    #: "preference": consumer intentions are exactly their preferences
    #: (the paper: "we set υ = 1, i.e. the consumers' intentions denote
    #: their preferences"); "formula": literal Definition 7 with
    #: reputation.
    consumer_intention_mode: str = "preference"
    fixed_omega: float | None = None  # None → Equation 6
    #: Ablation hook for Definition 8: when set, providers compute their
    #: intentions as if their preference-based satisfaction were this
    #: constant (0 → pure preference chasing, 1 → pure load shedding).
    #: None (default) uses the live satisfaction — the paper's design.
    fixed_provider_satisfaction: float | None = None
    # --- workload ---------------------------------------------------
    workload: WorkloadSpec = WorkloadSpec()
    duration: float = 1500.0
    queries_per_request: int = 1  # q.n (the paper's experiments use 1)
    # --- utilisation measurement (DESIGN.md §2.2) -------------------
    utilization_window: float = 30.0
    utilization_bins: int = 15
    # --- autonomy ----------------------------------------------------
    departures: DepartureRules = DepartureRules.captive()
    warmup_time: float = 150.0
    #: Checks are spaced one utilisation window apart by default so
    #: consecutive checks see (largely) fresh evidence; much faster
    #: checking makes the persistence rule vacuous because the same
    #: transient burst trips several consecutive checks.
    departure_check_interval: float = 30.0
    # --- measurement -------------------------------------------------
    sample_interval: float = 30.0
    # --- baseline knobs ----------------------------------------------
    mariposa: MariposaParams = MariposaParams()
    # --- adversarial scenario dimensions (opt-in; None = absent) -----
    #: Scheduled temporary capacity loss (outages / flapping).  ``None``
    #: keeps the run bit-identical to the pre-fault engine — it is the
    #: absence of the feature, not an empty schedule.
    faults: FaultSpec | None = None
    #: Providers that misreport preferences to game allocation.
    strategic: StrategicSpec | None = None

    def __post_init__(self) -> None:
        owner = "SimulationConfig"
        for name in (
            "n_consumers", "n_providers", "consumer_memory", "provider_memory",
            "queries_per_request", "utilization_bins",
        ):
            check_number(owner, name, getattr(self, name), gt=0, integer=True)
        for name in (
            "epsilon", "duration", "utilization_window",
            "departure_check_interval", "sample_interval",
        ):
            check_number(owner, name, getattr(self, name), gt=0)
        for name in ("initial_satisfaction", "upsilon"):
            check_number(owner, name, getattr(self, name), ge=0, le=1)
        for name in ("fixed_omega", "fixed_provider_satisfaction"):
            check_number(owner, name, getattr(self, name), ge=0, le=1, optional=True)
        check_number(owner, "warmup_time", self.warmup_time, ge=0)
        check_number(
            owner, "warm_start_entries", self.warm_start_entries, ge=0, integer=True
        )
        if self.warm_start_entries > self.provider_memory:
            raise ValueError("warm_start_entries cannot exceed provider_memory")
        if self.provider_pref_mode not in ("per_query", "per_query_class"):
            raise ValueError(
                f"unknown provider_pref_mode {self.provider_pref_mode!r}"
            )
        if self.consumer_intention_mode not in ("preference", "formula"):
            raise ValueError(
                f"unknown consumer_intention_mode {self.consumer_intention_mode!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise TypeError(f"faults must be a FaultSpec, got {self.faults!r}")
        if self.strategic is not None and not isinstance(
            self.strategic, StrategicSpec
        ):
            raise TypeError(
                f"strategic must be a StrategicSpec, got {self.strategic!r}"
            )

    # -- derived quantities ------------------------------------------

    def total_capacity(self) -> float:
        """Expected aggregate capacity in treatment units per second.

        Uses the class mix expectation; the realised total of a concrete
        provider population differs only by sampling rounding.
        """
        rates = self.capacity.rates
        fractions = self.capacity.fractions
        per_provider = sum(rate * frac for rate, frac in zip(rates, fractions))
        return self.n_providers * per_provider

    def arrival_rate_at(self, time: float) -> float:
        """Instantaneous Poisson arrival rate (queries per second)."""
        fraction = self.workload.fraction_at(time, self.duration)
        return fraction * self.total_capacity() / self.query_classes.mean_cost

    def peak_arrival_rate(self) -> float:
        """The maximum arrival rate over the run (used for thinning)."""
        fraction = self.workload.peak_fraction(self.duration)
        return fraction * self.total_capacity() / self.query_classes.mean_cost

    def optimal_utilization_at(self, time: float) -> float:
        """The paper's 'optimal utilisation': the workload fraction."""
        return self.workload.fraction_at(time, self.duration)

    def with_workload(self, workload: WorkloadSpec) -> "SimulationConfig":
        """A copy with a different workload spec."""
        return replace(self, workload=workload)

    def with_departures(self, departures: DepartureRules) -> "SimulationConfig":
        """A copy with different autonomy rules."""
        return replace(self, departures=departures)

    def with_faults(self, faults: FaultSpec | None) -> "SimulationConfig":
        """A copy with a different fault plan (``None`` removes it)."""
        return replace(self, faults=faults)

    def with_strategic(
        self, strategic: StrategicSpec | None
    ) -> "SimulationConfig":
        """A copy with different strategic misreporting (``None`` removes)."""
        return replace(self, strategic=strategic)


def paper_config(**overrides) -> SimulationConfig:
    """The exact Table 2 environment (200 consumers, 400 providers, 10 ks).

    Warning: a 100 %-workload run at this scale is ~1.5 M queries and
    takes many minutes in pure Python.  Use :func:`scaled_config` for
    day-to-day work.
    """
    params = dict(
        n_consumers=200,
        n_providers=400,
        consumer_memory=200,
        provider_memory=500,
        duration=10_000.0,
        sample_interval=200.0,
        warmup_time=500.0,
        utilization_window=30.0,
        utilization_bins=15,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def scaled_config(**overrides) -> SimulationConfig:
    """The default scaled environment (see DESIGN.md §2.4).

    One fifth of the paper's populations with identical class mixes and
    capacity ratios; the horizon is shortened so a full three-method
    comparison runs in seconds.  The participant memories are scaled by
    the same 1/5 factor: the paper's distinguishing statistics (e.g. how
    many of the last ``proSatSize`` proposed queries a provider
    performed, ≈ ``proSatSize / n_providers``) are preserved only if the
    window scales with the population.
    """
    params = dict(
        n_consumers=40,
        n_providers=80,
        # The provider memory scales with the population (it controls
        # the performed-per-window statistic, see the docstring); the
        # consumer memory is kept closer to the paper's 200 because it
        # controls the smoothness of the consumer satisfaction signal
        # that the departure rule reads.
        consumer_memory=100,
        provider_memory=100,
        duration=1500.0,
        sample_interval=30.0,
        warmup_time=150.0,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def tiny_config(**overrides) -> SimulationConfig:
    """A seconds-fast environment for unit and integration tests."""
    params = dict(
        n_consumers=8,
        n_providers=16,
        consumer_memory=50,
        provider_memory=100,
        duration=120.0,
        sample_interval=10.0,
        warmup_time=20.0,
        departure_check_interval=5.0,
        utilization_window=10.0,
        utilization_bins=5,
    )
    params.update(overrides)
    return SimulationConfig(**params)
