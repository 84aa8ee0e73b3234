"""Spatial, temporal and wavelet gait descriptors and their fusion.

The fused descriptor has 14 dimensions in fixed order: 4 box statistics,
4 walking-dynamics values, and 6 wavelet subband energy statistics.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import BadComponentLength, BadDimensions, EmptyWindow, TooFewFrames
from .segmentation import _silhouette, bounding_boxes

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
    """Mean box height, width, diagonal angle (degrees) and aspect ratio
    of box rows [x_min, y_min, x_max, y_max].

    Rows of frames without a silhouette (width 0, as
    ``segmentation.EMPTY_BOX``) are excluded from the averages.
    """
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    widths = (boxes[:, 2] - boxes[:, 0] + 1).astype(np.float64)
    heights = (boxes[:, 3] - boxes[:, 1] + 1).astype(np.float64)
    present = widths > 0
    if not present.any():
        raise EmptyWindow("no frame in the window has a silhouette")
    heights, widths = heights[present], widths[present]
    mean_h = heights.mean()
    mean_w = widths.mean()
    angles = np.degrees(np.arctan2(heights, widths))
    return np.array([mean_h, mean_w, angles.mean(), mean_h / mean_w])


def check_fps(fps) -> None:
    """The frame rate's one rule: positive and finite."""
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")


def temporal_features(centroids, period: int, fps: float) -> np.ndarray:
    """Stride length, step length, cadence and velocity.

    Stride length is the mean absolute horizontal centroid displacement at
    a lag of one cycle; entries for silhouette-less frames are NaN and are
    skipped. One cycle covers two steps, so cadence doubles the cycle rate.
    """
    x = np.asarray(centroids, dtype=np.float64)
    check_fps(fps)
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


def _haar_sums(x: np.ndarray):
    # a+b+c+d, a-b+c-d, a+b-c-d, a-b-c+d of each 2x2 block [[a, b], [c, d]]
    # over the last two axes, in x's dtype
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    return a + b + c + d, a - b + c - d, a + b - c - d, a - b - c + d


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
    return tuple(s / 2.0 for s in _haar_sums(x))


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


def series_stats(values) -> tuple[float, float]:
    """Mean and sample standard deviation (divisor N-1) of a series."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise TooFewFrames("standard deviation with divisor N-1 needs >= 2 values")
    mu = float(arr.mean())
    sigma = math.sqrt(float(((arr - mu) ** 2).sum()) / (arr.size - 1))
    return mu, sigma


def subband_energies(masks, boxes) -> np.ndarray:
    """LL/LH/HL energies of each silhouette of an (n, h, w) mask stack
    with an (n, 4) box row, one row per frame with a silhouette.

    Each silhouette is cropped to its box and resampled to the wavelet
    grid (nearest neighbour); HH carries near-zero energy for smooth
    silhouettes and is discarded. The grids are gathered as 0/1 integers:
    every Haar coefficient of a 0/1 grid is an integer k over 2, so a
    band's energy is exactly sum(k**2) / 4 / band size.
    """
    masks = np.asarray(masks, dtype=bool)
    _, h, w = masks.shape
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    present = np.flatnonzero(boxes[:, 2] >= boxes[:, 0])
    x_min, y_min, x_max, y_max = boxes[present].T
    steps = np.arange(WAVELET_GRID)
    rows = (present * h + y_min)[:, None] + steps * (y_max - y_min + 1)[:, None] // WAVELET_GRID
    cols = x_min[:, None] + steps * (x_max - x_min + 1)[:, None] // WAVELET_GRID
    grids = masks.ravel().take((rows * w)[:, :, None] + cols[:, None, :])
    bands = _haar_sums(grids.view(np.int8))[:3]
    squares = np.stack([(k * k).sum(axis=(1, 2)) for k in bands], axis=1)
    return squares / 4 / (WAVELET_GRID // 2) ** 2


def wavelet_statistics(energies) -> np.ndarray:
    """Mean and standard deviation of per-frame LL/LH/HL energies, one
    row per silhouette, ordered [mu_LL, sigma_LL, mu_LH, sigma_LH, mu_HL,
    sigma_HL]."""
    energies = np.asarray(energies, dtype=np.float64).reshape(-1, 3)
    if len(energies) == 0:
        raise EmptyWindow("no silhouettes in the feature window")
    if len(energies) < 2:
        raise TooFewFrames("wavelet statistics need >= 2 silhouettes")
    out = []
    for s in range(3):
        mu, sigma = series_stats(energies[:, s])
        out.extend((mu, sigma))
    return np.array(out)


def wavelet_features(masks) -> np.ndarray:
    """:func:`wavelet_statistics` of a list of (h, w) bool masks, taken
    mask by mask so their shapes may differ; masks without foreground
    are skipped."""
    masks = [_silhouette(m)[None] for m in masks]
    return wavelet_statistics([subband_energies(m, bounding_boxes(m)) for m in masks if m.any()])


def fuse(spatial, temporal, wavelet) -> np.ndarray:
    """The 14-dimensional fused descriptor: the spatial, temporal and
    wavelet components in that order, each of its full dimension (4/4/6).
    The feature-set comparison does not fuse subsets: it selects columns
    of the full descriptor (``pipeline.FEATURE_SETS``).
    """
    return np.concatenate([_component(spatial, 4, "spatial"), _component(temporal, 4, "temporal"),
                           _component(wavelet, 6, "wavelet")])
