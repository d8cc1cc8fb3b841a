"""Provider scoring (Definition 9 and Equation 6 of the paper).

Given a query, SQLB scores each candidate provider by trading the
*consumer's* intention to allocate the query to it against the
*provider's* intention to perform it.  The trade-off weight ``ω`` is not
a constant: Equation 6 recomputes it per (consumer, provider) pair from
their mediator-visible satisfactions, so the side that is currently less
satisfied gets more say — the paper's equity mechanism (Section 5.3).

``ω`` must be computed from **intention-based** satisfactions: the query
allocation module has no access to participants' private preferences.
"""

from __future__ import annotations

import numpy as np

from repro.core.intentions import DEFAULT_EPSILON

__all__ = [
    "omega",
    "omega_vector",
    "omega_surface",
    "provider_score",
    "provider_score_vector",
]


def omega(consumer_satisfaction: float, provider_satisfaction: float) -> float:
    """The balance parameter ``ω`` (Equation 6).

    ``ω = ((δs(c) - δs(p)) + 1) / 2 ∈ [0, 1]``.

    ``ω`` weighs the *provider's* intention inside Definition 9, so a
    consumer more satisfied than the provider (``δs(c) > δs(p)``) pushes
    ``ω`` above 0.5 and the allocation pays more attention to the
    provider's wishes, and vice versa.  Equal satisfactions give the
    neutral 0.5.

    Both inputs are intention-based satisfactions in ``[0, 1]``.
    """
    if not 0.0 <= consumer_satisfaction <= 1.0:
        raise ValueError(
            f"consumer satisfaction must be in [0, 1], got {consumer_satisfaction}"
        )
    if not 0.0 <= provider_satisfaction <= 1.0:
        raise ValueError(
            f"provider satisfaction must be in [0, 1], got {provider_satisfaction}"
        )
    return ((consumer_satisfaction - provider_satisfaction) + 1.0) / 2.0


def omega_vector(
    consumer_satisfaction: float, provider_satisfactions: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`omega` for one consumer against many providers."""
    sats = np.asarray(provider_satisfactions, dtype=float)
    if not 0.0 <= consumer_satisfaction <= 1.0:
        raise ValueError(
            f"consumer satisfaction must be in [0, 1], got {consumer_satisfaction}"
        )
    if sats.size and (sats.min() < 0.0 or sats.max() > 1.0):
        raise ValueError("provider satisfactions must be in [0, 1]")
    return ((consumer_satisfaction - sats) + 1.0) / 2.0


def omega_surface(points: int = 41) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Figure 3 surface: ``ω`` over the satisfaction × satisfaction grid.

    Returns ``(provider_sat_axis, consumer_sat_axis, omega_grid)`` where
    ``omega_grid[i, j] = ω(consumer_sat[j], provider_sat[i])``.
    """
    provider_axis = np.linspace(0.0, 1.0, points)
    consumer_axis = np.linspace(0.0, 1.0, points)
    grid = ((consumer_axis[None, :] - provider_axis[:, None]) + 1.0) / 2.0
    return provider_axis, consumer_axis, grid


def provider_score(
    provider_intention: float,
    consumer_intention: float,
    omega_value: float,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Provider score ``scr_q(p)`` (Definition 9).

    ``PI^ω · CI^(1-ω)`` when both intentions are positive; otherwise the
    negative product ``-( (1-PI+ε)^ω · (1-CI+ε)^(1-ω) )``.

    Parameters
    ----------
    provider_intention:
        ``PI_q[p]`` — the provider's raw intention to perform the query.
        May fall below -1 (Definition 8's negative branch); the negative
        branch of the score handles any value ≤ 1.
    consumer_intention:
        ``CI_q[p]`` — the consumer's raw intention to allocate to ``p``.
    omega_value:
        ``ω ∈ [0, 1]``, usually from :func:`omega` (Equation 6) but the
        paper also allows fixing it per application (e.g. ``ω = 0`` for
        fully cooperative providers).
    epsilon:
        ``ε > 0`` smoothing constant.
    """
    if not 0.0 <= omega_value <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega_value}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if provider_intention > 1.0 or consumer_intention > 1.0:
        raise ValueError("intentions cannot exceed 1")
    if provider_intention > 0.0 and consumer_intention > 0.0:
        return provider_intention**omega_value * consumer_intention ** (
            1.0 - omega_value
        )
    return -(
        (1.0 - provider_intention + epsilon) ** omega_value
        * (1.0 - consumer_intention + epsilon) ** (1.0 - omega_value)
    )


def provider_score_vector(
    provider_intentions: np.ndarray,
    consumer_intentions: np.ndarray,
    omega_values: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Vectorised :func:`provider_score` over the candidate set ``P_q``.

    All inputs broadcast; ``omega_values`` is typically the per-provider
    vector from :func:`omega_vector` because Equation 6 depends on each
    provider's own satisfaction.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    pi = np.asarray(provider_intentions, dtype=float)
    ci = np.asarray(consumer_intentions, dtype=float)
    om = np.asarray(omega_values, dtype=float)
    if not (pi.shape == ci.shape == om.shape):
        # Aligned candidate vectors (the hot path) skip the broadcast.
        pi, ci, om = np.broadcast_arrays(pi, ci, om)
    if om.size and (om.min() < 0.0 or om.max() > 1.0):
        raise ValueError("omega values must be in [0, 1]")
    positive = (pi > 0.0) & (ci > 0.0)
    # One branch per lane, as in provider_intention_vector: pick the
    # bases first, take two powers instead of four, then negate the
    # negative lanes (exact), which equals the case-split formula bit
    # for bit.
    pi_base = np.where(positive, pi, 1.0 - pi + epsilon)
    ci_base = np.where(positive, ci, 1.0 - ci + epsilon)
    magnitude = np.power(pi_base, om) * np.power(ci_base, 1.0 - om)
    return np.where(positive, magnitude, -magnitude)
