"""One rule for what a valid number is, for every config field and CLI flag.

A guard like ``x <= 0`` is false for NaN, so it lets NaN and infinity
through; :func:`check_number` refuses both.  It never converts the
value, so what a config stores, and hashes into its cache key, is what
it was given.  Stdlib-only, so any module may import it.
"""

import math

__all__ = ["check_number"]


def check_number(owner, field, value, *, gt=None, ge=None, lt=None, le=None,
                 integer=False, optional=False) -> None:
    """Raise ``ValueError`` naming ``owner.field`` unless ``value`` is a
    finite real number, integral if ``integer`` (``3.0`` is), and
    ``> gt``, ``>= ge``, ``< lt``, ``<= le`` for each bound given.
    ``None`` passes only if ``optional``."""
    if value is None and optional:
        return
    try:
        if (
            math.isfinite(value)
            and (gt is None or value > gt)
            and (ge is None or value >= ge)
            and (lt is None or value < lt)
            and (le is None or value <= le)
            and not (integer and value % 1)
        ):
            return
    except TypeError:  # None, or not a real number at all
        pass
    low = f"({gt}" if gt is not None else f"[{ge}" if ge is not None else "(-inf"
    high = f"{lt})" if lt is not None else f"{le}]" if le is not None else "inf)"
    words = {"(0, inf)": "positive", "[0, inf)": "non-negative", "(-inf, inf)": ""}
    rule = words.get(f"{low}, {high}", f"in {low}, {high}")
    name = f"{owner}.{field}" if owner else field
    raise ValueError(
        f"{name} must be {rule + ' and ' if rule else ''}"
        f"{'an integer' if integer else 'finite'}, got {value!r}"
    )
