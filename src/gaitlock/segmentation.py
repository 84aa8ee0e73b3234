"""Silhouette extraction: frame differencing, cleanup, bounding boxes.

A walk is segmented in blocks of frames with whole-array numpy passes;
the per-frame functions are the one-frame case of the same code.
"""

from __future__ import annotations

import numpy as np

from .background import (
    _BLOCK_BYTES,
    BackgroundModel,
    check_threshold,
    otsu_from_histograms,
    otsu_histograms,
)
from .errors import DimensionMismatch
from .imagery import FrameSequence, WalkBuffers, _grid

# box row of an empty mask: x_max < x_min, so width and height are 0
EMPTY_BOX = (0, 0, -1, -1)


def _silhouette(mask) -> np.ndarray:
    # one frame's mask as a 2-D bool array; other shapes raise
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.size == 0:
        raise DimensionMismatch(f"mask must be a non-empty 2-D grid, got shape {mask.shape}")
    return mask


def bounding_boxes(masks) -> np.ndarray:
    """Tight box of each mask of an (n, h, w) stack, one int64 row
    [x_min, y_min, x_max, y_max] per mask. An empty mask gets
    ``EMPTY_BOX``, so its width and height come out 0."""
    masks = np.asarray(masks, dtype=bool)
    _, h, w = masks.shape
    rows = masks.any(axis=2)
    cols = masks.any(axis=1)
    boxes = np.stack([
        cols.argmax(axis=1),
        rows.argmax(axis=1),
        w - 1 - cols[:, ::-1].argmax(axis=1),
        h - 1 - rows[:, ::-1].argmax(axis=1),
    ], axis=1).astype(np.int64)
    boxes[~rows.any(axis=1)] = EMPTY_BOX
    return boxes


def centroids_x(masks) -> np.ndarray:
    """Mean foreground column of each mask of an (n, h, w) stack, NaN
    where a mask is empty. Integer column sums stay far below 2**53, so
    each value equals the mean of the foreground column indices bit for
    bit."""
    masks = np.asarray(masks, dtype=bool)
    # (n, w) pixels per column, summed as bytes in the narrowest type holding h
    h = masks.shape[1]
    counts = np.add.reduce(masks.view(np.uint8), axis=1, dtype=np.min_scalar_type(h))
    with np.errstate(invalid="ignore"):
        return (counts @ np.arange(masks.shape[2])) / counts.sum(axis=1)


def _check_size(frames: np.ndarray, bg: BackgroundModel) -> None:
    # the frames of an (n, h, w) array against the reference
    if frames.shape[1:] != bg.reference.shape:
        (h, w), (bh, bw) = frames.shape[1:], bg.reference.shape
        raise DimensionMismatch(f"frame {w}x{h} vs background {bw}x{bh}")


def _foreground(frames: np.ndarray, reference: np.ndarray, threshold) -> np.ndarray:
    # |frame - reference| > threshold over an (n, h, w) uint8 block, for a
    # threshold read by check_threshold; auto takes one Otsu threshold per frame
    diff = np.maximum(frames, reference) - np.minimum(frames, reference)  # stays uint8
    if threshold == "auto":
        limits = otsu_from_histograms(otsu_histograms(diff.reshape(len(diff), -1))).astype(np.uint8)
        return diff > limits[:, None, None]
    return diff > threshold


def _majority_vote(masks: np.ndarray) -> np.ndarray:
    # one smoothing pass over an (n, h, w) stack: each pixel becomes the
    # majority of its 3x3 neighbourhood, borders padded with background;
    # the 3x3 sum is a 3-sum over rows followed by a 3-sum over columns
    n, h, w = masks.shape
    padded = np.zeros((n, h + 2, w + 2), dtype=np.uint8)
    padded[:, 1:-1, 1:-1] = masks
    rows = padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]
    counts = rows[:, :, :-2] + rows[:, :, 1:-1] + rows[:, :, 2:]
    return counts >= 5


def _label_runs(masks: np.ndarray):
    """Row runs of an (n, h, w) bool stack and the 8-connected component
    of each run.

    Run-based labeling in whole-array numpy passes (He, Chao & Suzuki,
    IEEE TIP 2008): row runs are joined to the runs they touch on the row
    above, so cost scales with the run count rather than the pixel count.
    The stack is laid out as one image whose rows are w + 1 keys wide,
    each frame followed by one blank row, so no run wraps a row and no
    component spans two frames. Returns (starts, ends, component): run
    i covers keys [starts[i], ends[i]), and components are numbered from
    0 in scan order of their first run.
    """
    n, h, w = masks.shape
    stride = w + 1
    flat = np.zeros(n * (h + 1) * stride + 1, dtype=bool)
    flat[1:].reshape(n, h + 1, stride)[:, :h, :w] = masks
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edges[0::2], edges[1::2]
    count = starts.size

    # 8-connectivity: a run [s, e) touches the runs on the row above with
    # end >= s and start <= e; both bounds are monotone in scan order
    lo = np.searchsorted(ends, starts - stride, side="left")
    hi = np.searchsorted(starts, ends - stride, side="right")
    counts = np.maximum(hi - lo, 0)
    src = np.repeat(np.arange(count), counts)
    first = np.cumsum(counts) - counts
    dst = np.repeat(lo - first, counts) + np.arange(src.size)

    # union: hook the larger root onto the smaller until every edge joins
    # equal roots; each root is then its component's lowest run index, its
    # first run in scan order. Parents always have lower indices, so paths
    # are shorter than count and count.bit_length() pointer jumps compress them.
    root = np.arange(count)
    while True:
        a, b = root[src], root[dst]
        split = a != b
        if not split.any():
            break
        a, b = a[split], b[split]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        for _ in range(count.bit_length()):
            root = root[root]
    component = (np.cumsum(root == np.arange(count)) - 1)[root]
    return starts, ends, component


def _run_pixels(starts: np.ndarray, ends: np.ndarray, h: int, w: int, frame=None, y0=0, x0=0):
    # flat indices of the runs' pixels in a stack of frames of shape
    # ``frame`` = (H, W), (h, w) by default, whose window at rows y0..,
    # columns x0.. is the labelled (n, h, w) stack: key
    # (f*(h+1) + r)*(w+1) + c of the layout in _label_runs is pixel
    # (f*H + y0 + r)*W + x0 + c
    H, W = frame or (h, w)
    row = starts // (w + 1)
    lengths = ends - starts
    offset = np.cumsum(lengths) - lengths
    base = starts - row * (w + 1) + (row + row // (h + 1) * (H - h - 1) + y0) * W + x0
    return np.repeat(base - offset, lengths) + np.arange(lengths.sum())


def _keep_largest(masks: np.ndarray, out: np.ndarray, y0=0, x0=0) -> None:
    # paint each frame's biggest 8-connected component of the (n, h, w)
    # stack into the all-False, C-contiguous ``out``, whose window at rows
    # y0.., columns x0.. the stack is; of equal sizes the first in scan
    # order wins
    n, h, w = masks.shape
    starts, ends, component = _label_runs(masks)
    sizes = np.bincount(component, weights=ends - starts)
    frame = np.empty(sizes.size, dtype=np.int64)
    frame[component] = starts // ((h + 1) * (w + 1))  # all runs of a component share it
    # by frame, then size descending; a stable sort keeps scan order on ties
    order = np.lexsort((-sizes, frame))
    leader = np.ones(order.size, dtype=bool)
    leader[1:] = frame[order[1:]] != frame[order[:-1]]
    keep = np.zeros(sizes.size, dtype=bool)
    keep[order[leader]] = True
    kept = keep[component]
    out.ravel()[_run_pixels(starts[kept], ends[kept], h, w, out.shape[1:], y0, x0)] = True


def largest_component(mask) -> np.ndarray:
    """Keep only the biggest 8-connected foreground component (ties: first
    in scan order) of an (h, w) bool mask."""
    mask = _silhouette(mask)
    kept = np.zeros((1,) + mask.shape, dtype=bool)
    _keep_largest(mask[None], kept)
    return kept[0]


def difference_mask(frame, bg: BackgroundModel, threshold="auto") -> np.ndarray:
    """(h, w) bool mask of the pixels of the (h, w) grid ``frame``, checked
    as ``FrameSequence`` checks a frame, whose absolute difference from the
    reference exceeds the threshold (strictly). ``auto`` chooses the
    threshold by Otsu analysis of this frame's difference image; any other
    threshold is read by ``background.check_threshold``.
    """
    threshold = check_threshold(threshold)
    frames = _grid(frame).astype(np.uint8, copy=False)[None]
    _check_size(frames, bg)
    return _foreground(frames, bg.reference, threshold)[0]


def clean_mask(raw) -> np.ndarray:
    """One majority-vote smoothing pass over an (h, w) bool mask, then
    largest-component selection."""
    return largest_component(_majority_vote(_silhouette(raw)[None])[0])


def segment_sequence(
    seq: FrameSequence, bg: BackgroundModel, threshold="auto", buffers: WalkBuffers | None = None
) -> np.ndarray:
    """Cleaned silhouettes of every frame as one (n, h, w) bool array:
    ``clean_mask(difference_mask(frame, bg, threshold))`` per frame.

    Frames are differenced, smoothed and labelled in blocks of
    about ``_BLOCK_BYTES``; a frame's mask does not depend on its block.
    Labeling scans only the box of the block's voted pixels, which keeps
    their scan order, so components and ties are those of the whole frame.
    With ``buffers`` the masks are painted into their ``masks`` array,
    valid only until the next walk is segmented into them.
    """
    threshold = check_threshold(threshold)
    _check_size(seq.pixels, bg)
    n, h, w = seq.pixels.shape
    masks = (buffers or WalkBuffers()).array("masks", (n, h, w), bool)
    masks.fill(False)
    step = max(1, _BLOCK_BYTES // (h * w))
    for i in range(0, n, step):
        raw = _foreground(seq.pixels[i:i + step], bg.reference, threshold)
        voted = _majority_vote(raw)
        seen = voted.any(axis=0)
        rows, cols = np.flatnonzero(seen.any(axis=1)), np.flatnonzero(seen.any(axis=0))
        if rows.size:
            crop = voted[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
            _keep_largest(crop, masks[i:i + step], rows[0], cols[0])
    return masks
