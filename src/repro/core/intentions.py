"""Participant intentions (Definitions 7 and 8 of the paper).

Intentions are the short-term, context-dependent signals participants
show the mediator (Section 2): a consumer's intention to allocate a query
to a provider, and a provider's intention to perform a query.  The SQLB
framework computes them as *trade-offs*:

* A consumer trades its private **preference** for the provider's public
  **reputation**, weighted by its confidence parameter ``υ``
  (Definition 7, Section 5.1).
* A provider trades its private **preference** for its current
  **utilisation**, weighted on the fly by its own (preference-based)
  **satisfaction** (Definition 8, Section 5.2): a satisfied provider
  accepts load it does not love; a dissatisfied one chases the queries it
  wants.

Both definitions are case-split so that fractional powers are only ever
applied to non-negative bases.  Their negative branches can exceed the
nominal ``[-1, 1]`` intention range (Figure 2 of the paper itself plots
values down to about -2.5); callers that must respect the Section 2 range
— e.g. when recording intentions into the satisfaction model — should
pass the raw values through :func:`clip_intention`.

Every function comes in a scalar form (readable reference, mirrors the
paper's notation) and a NumPy-vectorised form (used on the simulator hot
path); the test suite asserts they agree.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_EPSILON",
    "clip_intention",
    "consumer_intention",
    "consumer_intention_vector",
    "provider_intention",
    "provider_intention_surface",
    "provider_intention_vector",
]

#: The paper's ``ε > 0`` smoothing constant, "usually set to 1".  It
#: keeps the negative branches away from zero when a preference,
#: reputation, or utilisation hits an endpoint.
DEFAULT_EPSILON = 1.0


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _check_signed_unit(name: str, value: float) -> None:
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [-1, 1], got {value}")


def consumer_intention(
    preference: float,
    reputation: float,
    upsilon: float = 0.5,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Consumer intention ``ci_c(q, p)`` (Definition 7).

    ``prf^υ · rep^(1-υ)`` when both the preference and the reputation are
    positive; otherwise the negative product
    ``-( (1-prf+ε)^υ · (1-rep+ε)^(1-υ) )``.

    Parameters
    ----------
    preference:
        ``prf_c(q, p) ∈ [-1, 1]`` — the consumer's private preference for
        allocating this query to this provider.
    reputation:
        ``rep(p) ∈ [-1, 1]`` — the provider's reputation.
    upsilon:
        ``υ ∈ [0, 1]`` — the preference-vs-reputation balance.  ``υ = 1``
        ignores reputation (the consumer trusts its own experience),
        ``υ = 0`` ignores preference, ``υ = 0.5`` weighs them equally
        (Section 5.1).
    epsilon:
        ``ε > 0`` smoothing constant.
    """
    _check_signed_unit("preference", preference)
    _check_signed_unit("reputation", reputation)
    _check_unit_interval("upsilon", upsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if preference > 0.0 and reputation > 0.0:
        return preference**upsilon * reputation ** (1.0 - upsilon)
    return -(
        (1.0 - preference + epsilon) ** upsilon
        * (1.0 - reputation + epsilon) ** (1.0 - upsilon)
    )


def consumer_intention_vector(
    preferences: np.ndarray,
    reputations: np.ndarray,
    upsilon: float = 0.5,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Vectorised :func:`consumer_intention` over one provider axis."""
    _check_unit_interval("upsilon", upsilon)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    prf = np.asarray(preferences, dtype=float)
    rep = np.asarray(reputations, dtype=float)
    if rep.shape != prf.shape:
        rep = np.broadcast_to(rep, prf.shape)
    positive = (prf > 0.0) & (rep > 0.0)
    # Both factor bases are strictly positive on their branch, so the
    # fractional powers are always well defined; the unused lane is
    # floored at 0 (``maximum`` ≡ the one-sided clip, minus the
    # dispatch overhead) to keep numpy from warning.
    pos = np.power(np.maximum(prf, 0.0), upsilon) * np.power(
        np.maximum(rep, 0.0), 1.0 - upsilon
    )
    neg = -(
        np.power(1.0 - prf + epsilon, upsilon)
        * np.power(1.0 - rep + epsilon, 1.0 - upsilon)
    )
    return np.where(positive, pos, neg)


def provider_intention(
    preference: float,
    utilization: float,
    satisfaction: float,
    epsilon: float = DEFAULT_EPSILON,
) -> float:
    """Provider intention ``pi_p(q)`` (Definition 8).

    ``prf^(1-δs) · (1-Ut)^δs`` when the provider wants the query
    (``prf > 0``) and has spare capacity (``Ut < 1``); otherwise the
    negative product ``-( (1-prf+ε)^(1-δs) · (Ut+ε)^δs )``.

    The exponent ``δs`` must be the provider's **preference-based**
    satisfaction (Section 5.2): the provider has access to its own
    private information, and balancing on intention-based satisfaction
    would let the mediator's view leak into the provider's private
    trade-off.

    Parameters
    ----------
    preference:
        ``prf_p(q) ∈ [-1, 1]`` — the provider's private preference for
        performing the query.
    utilization:
        ``Ut(p) ≥ 0`` — current utilisation; may exceed 1 under overload.
    satisfaction:
        ``δs(p) ∈ [0, 1]`` — preference-based satisfaction.
    epsilon:
        ``ε > 0`` smoothing constant.
    """
    _check_signed_unit("preference", preference)
    _check_unit_interval("satisfaction", satisfaction)
    if utilization < 0.0:
        raise ValueError(f"utilization must be non-negative, got {utilization}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if preference > 0.0 and utilization < 1.0:
        return preference ** (1.0 - satisfaction) * (
            1.0 - utilization
        ) ** satisfaction
    return -(
        (1.0 - preference + epsilon) ** (1.0 - satisfaction)
        * (utilization + epsilon) ** satisfaction
    )


def provider_intention_vector(
    preferences: np.ndarray,
    utilizations: np.ndarray,
    satisfactions: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
) -> np.ndarray:
    """Vectorised :func:`provider_intention` over one provider axis.

    All three inputs broadcast against each other; the usual shape is one
    entry per provider in ``P_q``.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    prf = np.asarray(preferences, dtype=float)
    ut = np.asarray(utilizations, dtype=float)
    sat = np.asarray(satisfactions, dtype=float)
    if not (prf.shape == ut.shape == sat.shape):
        # The engine always passes three aligned candidate vectors;
        # broadcasting only runs for surface plots and scalar mixes.
        prf, ut, sat = np.broadcast_arrays(prf, ut, sat)
    positive = (prf > 0.0) & (ut < 1.0)
    # Each lane takes one branch, so pick its bases first and take two
    # powers instead of four.  On the positive branch the bases are the
    # raw values (no floor needed: both are strictly positive there),
    # and negation is exact, so every lane equals the case-split
    # formula bit for bit.
    prf_base = np.where(positive, prf, 1.0 - prf + epsilon)
    ut_base = np.where(positive, 1.0 - ut, ut + epsilon)
    magnitude = np.power(prf_base, 1.0 - sat) * np.power(ut_base, sat)
    return np.where(positive, magnitude, -magnitude)


def provider_intention_surface(
    satisfaction: float,
    preference_points: int = 41,
    utilization_points: int = 41,
    max_utilization: float = 2.0,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Figure 2 trade-off surface at a fixed satisfaction level.

    Evaluates Definition 8 on a (preference × utilisation) grid, exactly
    the plot the paper shows for ``δs = 0.5``.

    Returns
    -------
    (preferences, utilizations, intentions):
        1-D grid axes and the 2-D intention surface with shape
        ``(preference_points, utilization_points)``.
    """
    _check_unit_interval("satisfaction", satisfaction)
    preferences = np.linspace(-1.0, 1.0, preference_points)
    utilizations = np.linspace(0.0, max_utilization, utilization_points)
    surface = provider_intention_vector(
        preferences[:, None],
        utilizations[None, :],
        satisfaction,
        epsilon=epsilon,
    )
    return preferences, utilizations, surface


def clip_intention(value: float | np.ndarray) -> float | np.ndarray:
    """Clip raw intention values to the Section 2 range ``[-1, 1]``.

    Definitions 7/8 can produce values below -1 on their negative
    branches; the satisfaction model (Section 3) is defined over
    ``[-1, 1]``, so recorded intentions go through this clip while the
    raw values keep their full discriminative power inside the scoring
    formulas.
    """
    if isinstance(value, np.ndarray):
        return np.clip(value, -1.0, 1.0)
    return max(-1.0, min(1.0, float(value)))
