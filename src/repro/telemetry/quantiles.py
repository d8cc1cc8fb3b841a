"""The one telemetry quantile rule, and the histogram timers keep.

Every quantile a telemetry surface prints (p50/p90/p99 of per-query
dispatch time, of per-job wall time, of engine phase durations) is the
linear ("inclusive") quantile of the union of the observations: the
value at position ``q · (n - 1)`` of the sorted sample, interpolated
between its two neighbours, as numpy's default and
``statistics.quantiles(..., method="inclusive")`` compute it.

``telemetry timeline`` holds the raw durations and applies the rule
exactly.  A registry timer cannot keep its observations (a run serves
hundreds of thousands of queries), so it counts them in a log-bucket
histogram: ``math.frexp`` splits a positive value into a mantissa in
[0.5, 1) and a power of two, the mantissa range is cut into
:data:`SUB_BUCKETS` equal parts, and zero has a bucket of its own.  No
bucket is wider than 1/32 of the values in it, so a bucket's midpoint
is within 1/64 of any of them.  Histograms merge exactly, by adding
counts key by key, so timers merged across processes give the
quantiles of their union to within that half bucket.

This module imports nothing from the rest of the package (and no
numpy): the engine's hot path imports the telemetry layer.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Callable

__all__ = [
    "QUANTILE_FIELDS",
    "SUB_BUCKETS",
    "bucket_key",
    "histogram_quantiles",
    "inclusive_quantile",
]

#: The quantiles every telemetry surface reports, by field name.
QUANTILE_FIELDS = (("p50_s", 0.5), ("p90_s", 0.9), ("p99_s", 0.99))

#: Buckets per octave ``[2**k, 2**(k + 1))``.  A bucket is 1/32 of the
#: octave it splits, so it is no wider than 1/32 (about 3 %) of any
#: value in it.
SUB_BUCKETS = 32

#: Lifts every ``frexp`` exponent, down to the smallest positive
#: double's (-1073), so that positive values take keys above 0 and
#: key 0 is the zero bucket.
_EXPONENT_BIAS = 1 - math.frexp(math.ulp(0.0))[1]


def bucket_key(value: float) -> int:
    """The histogram bucket of a non-negative ``value``; 0 for zero.

    Keys sort as the values do.
    """
    if value <= 0.0:
        return 0
    mantissa, exponent = math.frexp(value)
    return (exponent + _EXPONENT_BIAS) * SUB_BUCKETS + int(
        (mantissa - 0.5) * 2 * SUB_BUCKETS
    )


def _midpoint(key: int) -> float:
    if key == 0:
        return 0.0
    exponent, sub = divmod(key, SUB_BUCKETS)
    return math.ldexp(
        0.5 + (sub + 0.5) / (2 * SUB_BUCKETS), exponent - _EXPONENT_BIAS
    )


def inclusive_quantile(
    ranked: Callable[[int], float], count: int, q: float
) -> float:
    """The linear ("inclusive") ``q``-quantile of ``count`` values.

    ``ranked(i)`` returns the ``i``-th smallest value, from 0.  NaN
    when ``count`` is 0.
    """
    if not count:
        return math.nan
    position = q * (count - 1)
    lower = int(position)
    low = ranked(lower)
    high = ranked(min(lower + 1, count - 1))
    # Exact when the neighbours are equal, unlike low·(1-f) + high·f.
    return low + (high - low) * (position - lower)


def histogram_quantiles(
    buckets: dict[int, int], low: float, high: float
) -> dict[str, float]:
    """The :data:`QUANTILE_FIELDS` of the values counted in ``buckets``.

    Each ranked value reads as its bucket's midpoint clamped to
    ``[low, high]``, the observed min and max, so a lone observation
    reads back exactly and every quantile is within half a bucket of
    the exact one.  NaN when the histogram is empty.
    """
    keys = sorted(buckets)
    ends = list(itertools.accumulate(buckets[key] for key in keys))

    def ranked(rank: int) -> float:
        key = keys[bisect.bisect_right(ends, rank)]
        return min(max(_midpoint(key), low), high)

    count = ends[-1] if ends else 0
    return {
        field: inclusive_quantile(ranked, count, q)
        for field, q in QUANTILE_FIELDS
    }
