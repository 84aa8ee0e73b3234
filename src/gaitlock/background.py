"""Static-scene background modelling from a training sequence.

Three per-pixel reference estimators are provided: an inter-frame change
analysis (``cdm``), the temporal median, and the dominant histogram bin.
All three assume a fixed camera and return an 8-bit reference image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, TooFewFrames
from .imagery import Frame, FrameSequence, decimal_number, read_pnm, shown, write_pgm

TECHNIQUE_CDM = "cdm"
TECHNIQUE_MEDIAN = "median"
TECHNIQUE_HISTOGRAM = "histogram"
TECHNIQUES = (TECHNIQUE_CDM, TECHNIQUE_MEDIAN, TECHNIQUE_HISTOGRAM)

# per-pixel selections and segmentation work in blocks of about this many
# bytes, which stay in cache through every pass; no output depends on it
_BLOCK_BYTES = 1 << 19


def check_threshold(value, name: str = "threshold"):
    """``auto`` or the integer in [0, 255] that ``value`` spells, read by
    ``imagery.decimal_number``."""
    text = str(value)
    if text == "auto":
        return text
    try:
        return decimal_number(text, 255)
    except ValueError:
        raise ValueError(f"{name} must be auto or an integer in [0, 255], got {shown(text)}") from None


@dataclass(frozen=True)
class BackgroundModel:
    """Per-pixel reference image plus the technique that produced it.

    ``cdm_threshold`` records the inter-frame change threshold actually
    used; it is None for the median and histogram techniques and for
    models reloaded from files that carry no provenance.
    """

    reference: Frame
    technique: str | None
    cdm_threshold: int | None = None

    @property
    def width(self) -> int:
        return self.reference.width

    @property
    def height(self) -> int:
        return self.reference.height


def otsu_histograms(rows: np.ndarray) -> np.ndarray:
    """The 256-bin histogram of each row of a non-empty (n, p) uint8
    array, as an (n, 256) int64 array. One ``bincount`` counts the
    non-zero values of every row; bin 0 takes the rest, since differences
    of static pixels are mostly 0.
    """
    n, p = rows.shape
    flat = rows.ravel()
    index = np.flatnonzero(flat != 0)
    keys = index // p * 256  # row r counts in bins 256 r .. 256 r + 255
    keys += flat[index]
    hist = np.bincount(keys, minlength=256 * n).reshape(n, 256)
    hist[:, 0] = p - hist.sum(axis=1)
    return hist


def otsu_from_histograms(hist: np.ndarray) -> np.ndarray:
    """Per row of an (n, 256) histogram with at least one count per row,
    the Otsu split ``t`` of the classes ``<= t`` and ``> t``; a row of one
    value gets that value, so its class ``> t`` stays empty.
    """
    prob = hist / hist.sum(axis=1, keepdims=True)
    omega = np.cumsum(prob, axis=1)
    mu = np.cumsum(prob * np.arange(256), axis=1)
    valid = (omega > 0.0) & (omega < 1.0)
    mu_total = np.broadcast_to(mu[:, -1:], mu.shape)[valid]
    w = omega[valid]
    sigma_b = np.zeros((len(hist), 256))
    sigma_b[valid] = (mu_total * w - mu[valid]) ** 2 / (w * (1.0 - w))
    thresholds = sigma_b.argmax(axis=1)
    single = ~valid.any(axis=1)  # one value only: the class '> t' stays empty
    thresholds[single] = hist[single].argmax(axis=1)
    return thresholds


def _pixel_blocks(pixels: np.ndarray, dtype, pixel_bytes: int, columns: np.ndarray):
    """Yield ``(cols, block)`` over the pixels ``columns`` of an (n, h, w)
    walk, taken as indices of the columns of its (n, h * w) frame matrix:
    ``block`` holds the frames of pixels ``cols`` as ``dtype``, one
    C-contiguous row per pixel, in one buffer reused by every block. A
    block spans about ``_BLOCK_BYTES // pixel_bytes`` pixels,
    ``pixel_bytes`` being the caller's working memory per pixel.
    """
    flat = pixels.reshape(len(pixels), -1)
    p = len(columns)
    step = max(1, min(p, _BLOCK_BYTES // pixel_bytes))
    buffer = np.empty((step, len(flat)), dtype)
    for start in range(0, p, step):
        cols = columns[start:start + step]
        block = buffer[:len(cols)]
        np.copyto(block, flat[:, cols].T)
        yield cols, block


def _majority(flat: np.ndarray, first=None, last=None):
    """Per pixel of an (n, p) frame matrix, the value at the middle frame
    of its run, and the pixels where that value fills at most half of the
    run. The run is frames ``first .. first + last`` (arrays in the
    smallest unsigned type holding n - 1), or the whole walk without them.

    A value held by more than half of a run of L frames covers the sorted
    position (L - 1) // 2, so it is the run's lower median and its only
    mode: only the returned pixels still need a selection.
    """
    n, p = flat.shape
    if first is None:
        candidates = flat[(n - 1) // 2].copy()
        half = n // 2
    else:
        candidates = flat[first + last // 2, np.arange(p)]
        half = last - last // 2  # (last + 1) // 2 without overflowing last's type
        frame = np.arange(n, dtype=first.dtype)
    count = np.zeros(p, dtype=np.min_scalar_type(n))
    step = min(n, max(1, _BLOCK_BYTES // p))
    equal = np.empty((step, p), dtype=bool)
    if first is not None:
        offset = np.empty((step, p), dtype=first.dtype)
        inside = np.empty((step, p), dtype=bool)
    for i in range(0, n, step):
        k = min(step, n - i)
        held = np.equal(flat[i:i + k], candidates, out=equal[:k])
        if first is not None:
            # frames before a pixel's run wrap past its end, as in model_cdm
            np.subtract(frame[i:i + k, None], first, out=offset[:k])
            held &= np.less_equal(offset[:k], last, out=inside[:k])
        count += np.add.reduce(held.view(np.uint8), axis=0, dtype=count.dtype)
    return candidates, np.flatnonzero(count <= half)


def model_median(seq: FrameSequence) -> BackgroundModel:
    """Per-pixel temporal median of the whole sequence.

    Exact whenever the true background is visible at a pixel in strictly
    more than half of the frames. Even frame counts take the lower of the
    two middle order statistics, so two pixel values are never blended.
    A value in more than half of a pixel's frames is found by counting;
    the other pixels' order statistic by selection, not by a full sort.
    """
    n, h, w = seq.pixels.shape
    k = (n - 1) // 2
    reference, undecided = _majority(seq.pixels.reshape(n, h * w))
    for cols, block in _pixel_blocks(seq.pixels, np.uint8, n, undecided):
        block.partition(k, axis=1)
        reference[cols] = block[:, k]
    return BackgroundModel(Frame(reference.reshape(h, w)), TECHNIQUE_MEDIAN)


def model_histogram(seq: FrameSequence) -> BackgroundModel:
    """Per-pixel modal intensity over a 256-bin histogram.

    Ties between equally frequent intensities resolve to the lowest one.
    A value in more than half of a pixel's frames is its only mode and is
    found by counting; the other pixels are binned.
    """
    n, h, w = seq.pixels.shape
    reference, undecided = _majority(seq.pixels.reshape(n, h * w))
    # per pixel a block holds n int64 codes, then bincount makes 256 int64 counts
    for cols, codes in _pixel_blocks(seq.pixels, np.intp, 8 * max(n, 256), undecided):
        width = len(codes)
        codes += np.arange(0, 256 * width, 256)[:, None]  # pixel i counts in bins 256 i ..
        counts = np.bincount(codes.ravel(), minlength=256 * width)
        reference[cols] = counts.reshape(width, 256).argmax(axis=1)  # the lowest on ties
    return BackgroundModel(Frame(reference.reshape(h, w)), TECHNIQUE_HISTOGRAM)


def model_cdm(seq: FrameSequence, threshold="auto") -> BackgroundModel:
    """Change-analysis background: per pixel, the median of the longest
    run of consecutive unchanged frames.

    A change fires between frames i and i+1 wherever the absolute
    intensity difference reaches the threshold; runs break exactly at
    firing transitions. Ties between equal-length runs go to the earlier
    run. ``threshold="auto"`` picks the value by Otsu analysis of the
    pooled inter-frame absolute differences: it fires on Otsu's ``> t``
    class. When every pooled difference is 255 that class is empty, the
    auto threshold is 256, no transition fires, and the reference is the
    lower median of the whole sequence. Any other threshold is read by
    ``check_threshold``.
    """
    threshold = check_threshold(threshold)
    if len(seq) < 2:
        raise TooFewFrames("change analysis needs at least 2 frames")
    auto = threshold == "auto"
    n, h, w = seq.pixels.shape
    p = h * w
    flat = seq.pixels.reshape(n, p)
    # the uint8 differences |a - b| = max - min, in blocks of frames; the pooled
    # Otsu histogram counts the non-zero ones block by block, bin 0 the rest
    diffs = np.empty((n - 1, p), dtype=np.uint8)
    pooled = np.zeros(256, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // p)
    for i in range(0, n - 1, step):
        block = diffs[i:i + step]
        a, b = flat[i:i + len(block)], flat[i + 1:i + 1 + len(block)]
        np.maximum(a, b, out=block)
        block -= np.minimum(a, b)
        if auto:
            pooled += np.bincount(block[block != 0], minlength=256)
    if auto:
        pooled[0] = diffs.size - pooled.sum()
        # Otsu yields classes <= t / > t; fire on the '> t' class
        threshold = int(otsu_from_histograms(pooled[None])[0]) + 1
    fires = diffs.view(np.bool_)  # the differences are not needed again
    np.greater_equal(diffs, threshold, out=fires)  # all False at 256
    # one scan over the frames. A run gets the key length * n + (n - 1 - start),
    # so the largest key is the longest run and, on equal lengths, the earlier.
    # Keys stay below n * (n + 1): the smallest signed type holding -n * (n + 1)
    # holds them (int16 up to n = 180)
    key_type = np.min_scalar_type(-n * (n + 1))
    key = np.full(p, 2 * n - 1, dtype=key_type)  # frame 0
    best = key.copy()
    # per frame t, reset holds the key 2n - 1 - t of a run starting at t where
    # a change fires, else the type's max. A run still going at t has key + n
    # >= 3n - t, above the start key, and below n * (n + 1) <= max, so one
    # minimum starts the new runs without a masked copy
    big = np.iinfo(key_type).max
    reset = np.empty((min(step, n - 1), p), dtype=key_type)
    for i in range(1, n, step):
        block = reset[:min(step, n - i)]
        starts = (2 * n - 1 - np.arange(i, i + len(block))).astype(key_type)
        np.multiply(fires[i - 1:i - 1 + len(block)], starts[:, None] - big, out=block)
        block += big
        for row in block:
            key += n  # one frame longer
            np.minimum(key, row, out=key)  # a new run starts where a change fires
            np.maximum(best, key, out=best)
    # frame numbers in the smallest unsigned type holding n - 1 (uint16 up to
    # n = 65,536), where frames before a pixel's run wrap past its end: one
    # compare finds the frames outside the run, and these gain 256, so they
    # sort after the run
    frame_type = np.min_scalar_type(n - 1)
    last = (best // n - 1).astype(frame_type)  # run length - 1
    first = (n - 1 - best % n).astype(frame_type)
    reference, undecided = _majority(flat, first, last)
    frame = np.arange(n, dtype=frame_type)
    for cols, vals in _pixel_blocks(seq.pixels, np.uint16, 2 * n, undecided):
        outside = frame - first[cols, None] > last[cols, None]
        vals |= outside.view(np.uint8) * np.uint16(256)
        vals.sort(axis=1)
        reference[cols] = vals[np.arange(len(vals)), last[cols] // 2]
    return BackgroundModel(Frame(reference.reshape(h, w)), TECHNIQUE_CDM, cdm_threshold=threshold)


def build_background(seq: FrameSequence, technique: str, threshold="auto") -> BackgroundModel:
    if technique == TECHNIQUE_MEDIAN:
        return model_median(seq)
    if technique == TECHNIQUE_HISTOGRAM:
        return model_histogram(seq)
    if technique == TECHNIQUE_CDM:
        return model_cdm(seq, threshold)
    raise ValueError(f"unknown background technique: {technique!r}")


def save_background(model: BackgroundModel, path) -> None:
    """Emit the reference as P5 PGM, provenance in a header comment."""
    comment = f"gaitlock-background technique={model.technique or 'unknown'}"
    if model.cdm_threshold is not None:
        comment += f" threshold={model.cdm_threshold}"
    write_pgm(path, model.reference.pixels, comment=comment)


def load_background(path) -> BackgroundModel:
    """Reload a reference image; provenance restored from the comment if present."""
    pixels, comments = read_pnm(path)
    technique = None
    cdm_threshold = None
    for line in comments:
        if line.startswith("gaitlock-background"):
            for field in line.split()[1:]:
                key, _, value = field.partition("=")
                if key == "technique" and value in TECHNIQUES:
                    technique = value
                elif key == "threshold":
                    # read as read_pnm reads header numbers, up to 256: the
                    # auto threshold when every difference is 255
                    try:
                        cdm_threshold = decimal_number(value, 256)
                    except ValueError:
                        bad = f"{path}: bad threshold {shown(value)} in comment"
                        raise DecodeError(bad) from None
    return BackgroundModel(Frame(pixels), technique, cdm_threshold)
