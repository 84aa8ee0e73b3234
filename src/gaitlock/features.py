"""Spatial, temporal and wavelet gait descriptors and their fusion.

The fused descriptor has 14 dimensions in fixed order: 4 box statistics,
4 walking-dynamics values, and 6 wavelet subband energy statistics.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import BadComponentLength, BadDimensions, EmptyWindow, TooFewFrames

WAVELET_GRID = 64

SPATIAL_NAMES = ("mean_height", "mean_width", "mean_angle_deg", "mean_aspect_ratio")
TEMPORAL_NAMES = ("stride_length", "step_length", "cadence", "velocity")
WAVELET_NAMES = ("mu_ll", "sigma_ll", "mu_lh", "sigma_lh", "mu_hl", "sigma_hl")
FEATURE_NAMES = SPATIAL_NAMES + TEMPORAL_NAMES + WAVELET_NAMES


def _component(values, length: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size != length:
        raise BadComponentLength(f"{name} component must have {length} values, got {arr.size}")
    return arr


def spatial_features(boxes) -> np.ndarray:
    """Mean box height, width, diagonal angle (degrees) and aspect ratio.

    Frames without a box are excluded from the averages.
    """
    present = [b for b in boxes if b is not None]
    if not present:
        raise EmptyWindow("no frame in the window has a silhouette")
    heights = np.array([b.height for b in present], dtype=np.float64)
    widths = np.array([b.width for b in present], dtype=np.float64)
    mean_h = heights.mean()
    mean_w = widths.mean()
    angles = np.degrees(np.arctan2(heights, widths))
    return np.array([mean_h, mean_w, angles.mean(), mean_h / mean_w])


def temporal_features(centroids, period: int, fps: float) -> np.ndarray:
    """Stride length, step length, cadence and velocity.

    Stride length is the mean absolute horizontal centroid displacement at
    a lag of one cycle; entries for silhouette-less frames are NaN and are
    skipped. One cycle covers two steps, so cadence doubles the cycle rate.
    """
    x = np.asarray(centroids, dtype=np.float64)
    if not fps > 0:
        raise ValueError("fps must be positive")
    if period < 1 or x.size < period + 1:
        raise EmptyWindow(
            f"window of {x.size} frames cannot span a cycle of {period} frames at lag distance"
        )
    displacement = np.abs(x[period:] - x[:-period])
    displacement = displacement[np.isfinite(displacement)]
    if displacement.size == 0:
        raise EmptyWindow("no valid centroid pair one cycle apart")
    stride = float(displacement.mean())
    step = stride / 2.0
    cadence = 2.0 * (fps * 60.0) / period
    velocity = stride * 0.5 * cadence
    return np.array([stride, step, cadence, velocity])


def haar_dwt2(image) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One-level orthonormal 2-D Haar transform of a square power-of-two grid.

    Each 2x2 block [[a, b], [c, d]] maps to
    LL=(a+b+c+d)/2, LH=(a-b+c-d)/2, HL=(a+b-c-d)/2, HH=(a-b-c+d)/2.
    """
    x = np.asarray(image, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise BadDimensions(f"expected a square grid, got shape {x.shape}")
    side = x.shape[0]
    if side < 2 or side & (side - 1):
        raise BadDimensions(f"side must be a power of two >= 2, got {side}")
    a = x[0::2, 0::2]
    b = x[0::2, 1::2]
    c = x[1::2, 0::2]
    d = x[1::2, 1::2]
    ll = (a + b + c + d) / 2.0
    lh = (a - b + c - d) / 2.0
    hl = (a + b - c - d) / 2.0
    hh = (a - b - c + d) / 2.0
    return ll, lh, hl, hh


def haar_idwt2(ll, lh, hl, hh) -> np.ndarray:
    """Exact inverse of :func:`haar_dwt2`."""
    ll, lh, hl, hh = (np.asarray(s, dtype=np.float64) for s in (ll, lh, hl, hh))
    if not (ll.shape == lh.shape == hl.shape == hh.shape) or ll.ndim != 2:
        raise BadDimensions("subbands must share one 2-D shape")
    half = ll.shape[0]
    out = np.empty((2 * half, 2 * ll.shape[1]))
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out


def subband_energy(band: np.ndarray) -> float:
    """Mean squared coefficient of one subband."""
    band = np.asarray(band, dtype=np.float64)
    return float((band * band).sum() / band.size)


def series_stats(values) -> tuple[float, float]:
    """Mean and sample standard deviation (divisor N-1) of a series."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise TooFewFrames("standard deviation with divisor N-1 needs >= 2 values")
    mu = float(arr.mean())
    sigma = math.sqrt(float(((arr - mu) ** 2).sum()) / (arr.size - 1))
    return mu, sigma


def _resample_nearest(grid: np.ndarray, side: int) -> np.ndarray:
    h, w = grid.shape
    rows = (np.arange(side) * h) // side
    cols = (np.arange(side) * w) // side
    return grid[np.ix_(rows, cols)]


def silhouette_subband_energies(mask) -> tuple[float, float, float]:
    """LL/LH/HL energies of one silhouette, cropped to its box and
    resampled to the wavelet grid (nearest neighbour)."""
    box = mask.bbox
    if box is None:
        raise EmptyWindow("cannot transform an empty silhouette")
    crop = mask.mask[box.y_min:box.y_max + 1, box.x_min:box.x_max + 1]
    grid = _resample_nearest(crop.astype(np.float64), WAVELET_GRID)
    # HH carries near-zero energy for smooth silhouettes and is discarded
    ll, lh, hl, _ = haar_dwt2(grid)
    return subband_energy(ll), subband_energy(lh), subband_energy(hl)


def wavelet_features(masks) -> np.ndarray:
    """Mean and standard deviation of the per-frame LL/LH/HL energies,
    ordered [mu_LL, sigma_LL, mu_LH, sigma_LH, mu_HL, sigma_HL]."""
    usable = [m for m in masks if m.bbox is not None]
    if not usable:
        raise EmptyWindow("no silhouettes in the feature window")
    if len(usable) < 2:
        raise TooFewFrames("wavelet statistics need >= 2 silhouettes")
    energies = np.array([silhouette_subband_energies(m) for m in usable])
    out = []
    for s in range(3):
        mu, sigma = series_stats(energies[:, s])
        out.extend((mu, sigma))
    return np.array(out)


def fuse(spatial=None, temporal=None, wavelet=None) -> np.ndarray:
    """Concatenate the given components in spatial, temporal, wavelet order.

    Each present component must carry its full dimension (4/4/6); passing
    all three yields the 14-dimensional fused descriptor. The feature-set
    comparison does not fuse subsets: it selects columns of the full
    descriptor (``pipeline.FEATURE_SETS``).
    """
    parts = []
    if spatial is not None:
        parts.append(_component(spatial, 4, "spatial"))
    if temporal is not None:
        parts.append(_component(temporal, 4, "temporal"))
    if wavelet is not None:
        parts.append(_component(wavelet, 6, "wavelet"))
    if not parts:
        raise BadComponentLength("fusion needs at least one component")
    return np.concatenate(parts)
