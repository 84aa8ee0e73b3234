"""Silhouette extraction: frame differencing, cleanup, bounding boxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import BackgroundModel, otsu_threshold
from .errors import DimensionMismatch
from .imagery import Frame


@dataclass(frozen=True)
class BoundingBox:
    """Tight axis-aligned box over foreground pixels, inclusive coordinates."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"degenerate bounding box {self}")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def height(self) -> int:
        return self.y_max - self.y_min + 1

    def shifted(self, dx: int, dy: int) -> "BoundingBox":
        return BoundingBox(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)


def bounding_box(mask: np.ndarray) -> BoundingBox | None:
    """Tight box over the nonzero pixels, or None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return BoundingBox(int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1]))


class SilhouetteMask:
    """Binary walker mask for one frame; the bbox is computed on construction."""

    __slots__ = ("mask", "bbox")

    def __init__(self, mask):
        arr = np.asarray(mask)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionMismatch(f"mask must be a non-empty 2-D grid, got shape {arr.shape}")
        arr = arr.astype(bool)
        self.mask = arr
        self.bbox = bounding_box(arr)

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @property
    def height(self) -> int:
        return self.mask.shape[0]

    @property
    def empty(self) -> bool:
        return self.bbox is None

    def centroid_x(self) -> float:
        """Mean column of the foreground pixels (NaN when empty)."""
        if self.bbox is None:
            return float("nan")
        return float(np.nonzero(self.mask)[1].mean())

    def to_pixels(self) -> np.ndarray:
        """0/255 uint8 rendering for PGM output."""
        return np.where(self.mask, 255, 0).astype(np.uint8)


def difference_mask(frame: Frame, bg: BackgroundModel, threshold="auto") -> SilhouetteMask:
    """Mark pixels whose absolute difference from the reference exceeds
    the threshold (strictly). ``auto`` chooses the threshold by Otsu
    analysis of this frame's difference image.
    """
    if frame.width != bg.width or frame.height != bg.height:
        raise DimensionMismatch(
            f"frame {frame.width}x{frame.height} vs background {bg.width}x{bg.height}"
        )
    a, b = frame.pixels, bg.reference.pixels
    diff = np.maximum(a, b) - np.minimum(a, b)  # |a - b| without leaving uint8
    if threshold == "auto":
        threshold = otsu_threshold(diff)
    threshold = int(threshold)
    return SilhouetteMask(diff > threshold)


def _majority_vote(mask: np.ndarray) -> np.ndarray:
    # one smoothing pass: each pixel becomes the majority of its 3x3
    # neighbourhood, borders padded with background; the 3x3 sum is a
    # 3-sum over rows followed by a 3-sum over columns
    h, w = mask.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    rows = padded[:-2] + padded[1:-1] + padded[2:]
    counts = rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]
    return counts >= 5


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Label 8-connected foreground components.

    Returns (labels, sizes): labels is int32 with 0 for background and
    1..k for components in scan order of their first pixel; sizes[i] is
    the pixel count of component i+1. Run-based labeling in whole-array
    numpy passes (He, Chao & Suzuki, IEEE TIP 2008): row runs are joined
    to the runs they touch on the row above, so cost scales with the run
    count rather than the pixel count.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    stride = w + 1  # each row gets one background column, so no run wraps
    flat = np.zeros(h * stride + 1, dtype=bool)
    flat[1:].reshape(h, stride)[:, :w] = mask
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]  # run covers keys [start, end)
    n = starts.size
    if n == 0:
        return np.zeros((h, w), dtype=np.int32), []

    # 8-connectivity: a run [s, e) touches the runs on the row above with
    # end >= s and start <= e; both bounds are monotone in scan order
    lo = np.searchsorted(ends, starts - stride, side="left")
    hi = np.searchsorted(starts, ends - stride, side="right")
    counts = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(n), counts)
    first = np.cumsum(counts) - counts
    dst = np.repeat(lo - first, counts) + np.arange(src.size)

    # union: hook the larger root onto the smaller until every edge joins
    # equal roots; each root is then its component's lowest run index, its
    # first run in scan order. Parents always have lower indices, so paths
    # are shorter than n and n.bit_length() pointer jumps compress them all.
    root = np.arange(n)
    while True:
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            break
        a, b = a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        for _ in range(n.bit_length()):
            root = root[root]

    is_root = root == np.arange(n)
    run_label = np.cumsum(is_root, dtype=np.int32)[root]
    lengths = ends - starts
    sizes = np.bincount(run_label, weights=lengths)[1:].astype(np.int64).tolist()
    # paint: key row*(w+1)+col is pixel row*w+col of the label map
    offset = np.cumsum(lengths) - lengths
    pixels = np.repeat(starts - starts // stride - offset, lengths) + np.arange(lengths.sum())
    labels = np.zeros((h, w), dtype=np.int32)
    labels.ravel()[pixels] = np.repeat(run_label, lengths)
    return labels, sizes


def largest_component(mask: np.ndarray) -> np.ndarray:
    """Keep only the biggest 8-connected foreground component (ties: first
    in scan order)."""
    labels, sizes = connected_components(mask)
    if not sizes:
        return np.zeros_like(mask, dtype=bool)
    keep = int(np.argmax(sizes)) + 1
    return labels == keep


def clean_mask(raw: SilhouetteMask) -> SilhouetteMask:
    """One majority-vote smoothing pass, then largest-component selection."""
    smoothed = _majority_vote(raw.mask)
    return SilhouetteMask(largest_component(smoothed))
