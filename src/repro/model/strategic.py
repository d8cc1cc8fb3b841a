"""Strategic providers: misreporting preferences to game allocation.

The paper assumes providers report their preferences truthfully; SQLB's
intention mechanism then balances those reports against utilization.
This module models the adversarial case — a fixed subset of providers
systematically distorts the preferences they *report* while their
*private* satisfaction is still judged against the truth:

* ``exaggerate`` — strategic providers push reported preferences toward
  +1 (claiming eagerness to attract allocations, e.g. to farm
  interactions or starve competitors).
* ``understate`` — strategic providers push reports toward -1 (feigning
  reluctance so the mediator "compensates" them, gaming intention-aware
  methods that favour unwilling providers).

The distortion is a deterministic transform of the truthful draw:
``p + gain * (1 - p)`` toward +1, ``p - gain * (p + 1)`` toward -1.
Which providers are strategic is drawn once, at simulation setup, from
a dedicated RNG stream (requested only when a spec is configured), and
:meth:`StrategicReporting.report` itself consumes no randomness — so a
config with ``strategic=None`` is bit-identical to the baseline.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro._checks import check_number

__all__ = ["StrategicReporting", "StrategicSpec"]

_MODES = ("exaggerate", "understate")


@dataclasses.dataclass(frozen=True)
class StrategicSpec:
    """Which fraction of providers misreports, and how hard.

    ``gain`` is the step toward the extreme: 0 < gain <= 1, where 1
    reports exactly the extreme regardless of the truthful value.
    """

    fraction: float = 0.25
    mode: str = "exaggerate"
    gain: float = 0.5

    def __post_init__(self) -> None:
        check_number("StrategicSpec", "fraction", self.fraction, gt=0, le=1)
        check_number("StrategicSpec", "gain", self.gain, gt=0, le=1)
        if self.mode not in _MODES:
            raise ValueError(
                f"strategic mode must be one of {_MODES}, got {self.mode!r}"
            )


class StrategicReporting:
    """Applies one :class:`StrategicSpec` to truthful preference draws.

    The strategic membership mask is fixed for the whole run; ``report``
    maps a truthful per-candidate preference vector to the reported one
    without mutating the input and without consuming RNG.
    """

    __slots__ = ("mode", "gain", "strategic_mask", "_cached_providers",
                 "_cached_member")

    def __init__(
        self,
        spec: StrategicSpec,
        n_providers: int,
        rng: np.random.Generator,
    ) -> None:
        size = max(1, round(spec.fraction * n_providers))
        chosen = rng.choice(n_providers, size=size, replace=False)
        mask = np.zeros(n_providers, dtype=bool)
        mask[chosen] = True
        self.mode = spec.mode
        self.gain = spec.gain
        self.strategic_mask = mask
        # Identity-keyed cache of the per-candidate membership gather —
        # the engine reuses one candidates array object between
        # departures (see ProviderPreferences.draw for the same idiom).
        self._cached_providers: np.ndarray | None = None
        self._cached_member: np.ndarray | None = None

    def report(
        self, providers: np.ndarray, preferences: np.ndarray
    ) -> np.ndarray:
        """Reported preferences of a candidate subset.

        ``providers`` indexes the pool; ``preferences`` is the truthful
        draw for exactly those candidates.  Non-strategic entries pass
        through unchanged.
        """
        if providers is not self._cached_providers:
            self._cached_member = self.strategic_mask[providers]
            self._cached_providers = providers
        member = self._cached_member
        if not member.any():
            return preferences
        reported = preferences.copy()
        truthful = reported[member]
        if self.mode == "exaggerate":
            reported[member] = truthful + self.gain * (1.0 - truthful)
        else:
            reported[member] = truthful - self.gain * (truthful + 1.0)
        return reported
