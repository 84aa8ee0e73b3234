"""Gait period estimation and cycle partitioning from bounding-box widths.

The silhouette's box is widest when the legs are farthest apart, so the
per-frame width traces a quasi-periodic signal. Its normalized
autocorrelation gives the period; cycles are anchored at the first width
maximum and tiled forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCycles, NoPeriodicity, SequenceTooShort

MIN_PERIOD = 4
PEAK_THRESHOLD = 0.3


@dataclass(frozen=True)
class GaitCycle:
    """One period of frames, inclusive indices."""

    start_frame: int
    end_frame: int
    period_frames: int

    def __post_init__(self):
        if self.period_frames < MIN_PERIOD:
            raise ValueError(f"degenerate period {self.period_frames} < {MIN_PERIOD}")
        if self.end_frame - self.start_frame + 1 != self.period_frames:
            raise ValueError("cycle bounds do not span period_frames frames")


def width_signal(boxes) -> np.ndarray:
    """Per-frame box width in pixels (0 where no silhouette) as (n,) float64,
    from the (n, 4) box rows of a walk (``segmentation.bounding_boxes``)."""
    boxes = np.asarray(boxes).reshape(-1, 4)
    return (boxes[:, 2] - boxes[:, 0] + 1).astype(np.float64)


def _widths(signal) -> np.ndarray:
    # a width signal as a 1-D float64 array; other shapes raise
    values = np.asarray(signal, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"width signal must be 1-D, got shape {values.shape}")
    return values


def autocorrelation(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation r(0..max_lag) of the mean-subtracted signal."""
    x = np.asarray(values, dtype=np.float64)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise NoPeriodicity("signal has zero variance")
    r = np.empty(max_lag + 1)
    r[0] = 1.0
    for k in range(1, max_lag + 1):
        r[k] = float(np.dot(x[:-k], x[k:])) / denom
    return r


def estimate_period(signal) -> int:
    """Lag of the first autocorrelation local maximum of a width signal
    reaching the acceptance threshold, searched over lags [4, n/2].
    """
    signal = _widths(signal)
    n = signal.size
    if n < 3 * MIN_PERIOD:
        raise SequenceTooShort(f"period estimation needs >= {3 * MIN_PERIOD} frames, got {n}")
    max_search = n // 2
    r = autocorrelation(signal, min(max_search + 1, n - 1))
    for k in range(MIN_PERIOD, max_search + 1):
        if r[k] < PEAK_THRESHOLD:
            continue
        left = r[k - 1]
        right = r[k + 1] if k + 1 < r.size else -np.inf
        if r[k] >= left and r[k] >= right:
            return k
    raise NoPeriodicity("no autocorrelation peak reached the acceptance threshold")


def _smooth3(values: np.ndarray) -> np.ndarray:
    # the mean of each value and its neighbours, summed as numpy's mean
    # sums them: left to right, from +0.0, so a -0.0 counts as +0.0
    x = values + 0.0
    if x.size < 2:
        return x
    out = np.empty(x.size)
    out[1:-1] = (x[:-2] + x[1:-1] + x[2:]) / 3
    out[0] = (x[0] + x[1]) / 2
    out[-1] = (x[-2] + x[-1]) / 2
    return out


def _first_peak(values: np.ndarray) -> int:
    n = values.size
    for i in range(n):
        left_ok = i == 0 or values[i] >= values[i - 1]
        right_ok = i == n - 1 or values[i] >= values[i + 1]
        if left_ok and right_ok:
            return i
    return 0


def partition_cycles(signal, period: int) -> list[GaitCycle]:
    """Tile cycles of the given period from the first width maximum of the
    3-frame-smoothed signal; trailing partial cycles are dropped.
    """
    signal = _widths(signal)
    if period < MIN_PERIOD:
        raise ValueError(f"period must be >= {MIN_PERIOD}")
    n = signal.size
    if n < period:
        raise SequenceTooShort(f"signal of {n} frames is shorter than one period ({period})")
    anchor = _first_peak(_smooth3(signal))
    cycles = []
    start = anchor
    while start + period - 1 <= n - 1:
        cycles.append(GaitCycle(start, start + period - 1, period))
        start += period
    return cycles


def select_feature_window(cycles: list[GaitCycle]) -> list[GaitCycle]:
    """The first two complete cycles: the window features are computed over."""
    if len(cycles) < 2:
        raise InsufficientCycles(f"need 2 complete cycles, found {len(cycles)}")
    return list(cycles[:2])
