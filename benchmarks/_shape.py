"""Small helpers shared by the figure benches."""

from __future__ import annotations

import numpy as np


def tail_mean(series: np.ndarray, fraction: float = 1 / 3) -> float:
    """Mean of the last ``fraction`` of a series (ignores NaN)."""
    n = max(1, int(len(series) * fraction))
    return float(np.nanmean(series[-n:]))


def head_mean(series: np.ndarray, fraction: float = 1 / 3) -> float:
    """Mean of the first ``fraction`` of a series (ignores NaN)."""
    n = max(1, int(len(series) * fraction))
    return float(np.nanmean(series[:n]))

