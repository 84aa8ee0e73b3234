"""Deterministic synthetic walker sequences with analytic ground truth.

Renders a side-view walker (torso plus two swinging legs) translating
across a uniform background, with optional salt noise. Every quantity the
pipeline later estimates -- period, per-frame box, centroid, stride -- is
returned exactly, which makes generated sequences usable as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .background import _BLOCK_BYTES
from .errors import SpecOutOfBounds
from .imagery import FrameSequence
from .segmentation import bounding_boxes, centroids_x

_GROUND_MARGIN = 5


@dataclass(frozen=True)
class WalkerSpec:
    """Geometry and dynamics of one synthetic walker.

    One period of the bounding-box width signal spans ``period_frames``
    frames (the legs separate and close once), during which the walker
    advances ``stride_px`` pixels.
    """

    body_height: int = 80
    body_width: int = 24
    period_frames: int = 24
    stride_px: int = 48
    leg_swing_amplitude: int = 36
    start_x: int = 40
    direction: int = 1
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.period_frames < 8:
            raise ValueError(f"period_frames must be >= 8, got {self.period_frames}")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must lie in [0, 1)")
        if self.body_height < 8 or self.body_width < 3:
            raise ValueError("walker body too small to render")
        if self.leg_swing_amplitude < 0 or self.stride_px < 0:
            raise ValueError("amplitude and stride must be non-negative")


@dataclass
class WalkerTruth:
    """Ground truth recorded while rendering: one box row
    [x_min, y_min, x_max, y_max] and one centroid column per frame."""

    period_frames: int
    stride_px: int
    bboxes: np.ndarray  # (n, 4) int64
    centroids: np.ndarray


def _leg_separation(spec: WalkerSpec, t: int) -> float:
    # |sin| completes one arch per period, so the width signal has
    # period exactly period_frames
    return spec.leg_swing_amplitude * abs(math.sin(math.pi * t / spec.period_frames))


def generate(
    spec: WalkerSpec,
    frame_w: int = 352,
    frame_h: int = 144,
    n_frames: int | None = None,
    background_level: int = 40,
) -> tuple[FrameSequence, WalkerTruth]:
    """Render ``n_frames`` frames (default three periods plus 8) and the
    exact per-frame ground truth.

    The walker is drawn at ``background_level + 100`` (clamped) on a
    uniform background; salt noise flips background pixels to the walker
    intensity with probability ``noise_rate`` per frame. All randomness
    derives from ``spec.seed``. Frames are painted in blocks of about
    ``_BLOCK_BYTES`` straight into the walk's one array.
    """
    if n_frames is None:
        n_frames = 3 * spec.period_frames + 8
    if n_frames < 3 * spec.period_frames:
        raise ValueError(
            f"need n_frames >= 3 * period ({3 * spec.period_frames}), got {n_frames}"
        )
    if not 0 <= background_level <= 255:
        raise ValueError("background_level must lie in [0, 255]")
    top = frame_h - spec.body_height - _GROUND_MARGIN
    if top < 0:
        raise SpecOutOfBounds(f"walker of height {spec.body_height} exceeds frame height {frame_h}")
    leg_len = spec.body_height // 2
    hip_row = top + spec.body_height - leg_len
    bottom = top + spec.body_height
    leg_w = max(3, spec.body_width // 3)

    # one row per frame of span starts: the torso (every torso row spans
    # the same columns), then the left leg and the right leg row by row.
    # Legs pivot at the hip: a linear sweep from the hip centre out to the
    # foot keeps each leg 8-connected to the torso at any separation
    ts = range(n_frames)
    cx = np.array([spec.start_x + spec.direction * spec.stride_px * t / spec.period_frames
                   for t in ts])
    half_sep = np.array([_leg_separation(spec, t) / 2.0 for t in ts])
    frac = np.arange(1, leg_len + 1) / leg_len
    lefts = np.concatenate([(cx - spec.body_width / 2.0)[:, None]] + [
        cx[:, None] + (side * half_sep)[:, None] * frac - leg_w / 2.0 for side in (-1.0, 1.0)
    ], axis=1)
    c0 = np.rint(lefts).astype(np.int64)  # half to even, as round() does
    c1 = c0 + np.array([spec.body_width] + [leg_w] * (2 * leg_len))
    outside = (c0 < 0) | (c1 > frame_w)
    if outside.any():
        t, k = np.argwhere(outside)[0]
        raise SpecOutOfBounds(
            f"walker leaves the frame at t={t} (columns {c0[t, k]}..{c1[t, k] - 1} of {frame_w})"
        )

    fg = min(255, background_level + 100)
    rng = np.random.default_rng(spec.seed)
    pixels = np.empty((n_frames, frame_h, frame_w), dtype=np.uint8)
    bboxes = np.empty((n_frames, 4), dtype=np.int64)
    centroids = np.empty(n_frames)
    step = max(1, _BLOCK_BYTES // (frame_h * frame_w))
    # rows off the walker are never painted and stay False
    block = np.zeros((min(step, n_frames), frame_h, frame_w), dtype=bool)
    salt = np.empty((frame_h, frame_w))
    # a column c lies in the span of width k from c0 when c - c0, which
    # lies in (-frame_w, frame_w), is below k read as unsigned
    signed = np.min_scalar_type(-frame_w)
    unsigned = np.dtype(f"u{signed.itemsize}")
    cols = np.arange(frame_w, dtype=signed)
    torso, left_leg, right_leg = np.split(c0.astype(signed)[..., None], [1, 1 + leg_len], axis=1)
    for start in range(0, n_frames, step):
        mask = block[:n_frames - start]
        spans = slice(start, start + len(mask))
        np.less((cols - torso[spans]).view(unsigned), spec.body_width, out=mask[:, top:hip_row])
        legs = mask[:, hip_row:bottom]
        np.less((cols - left_leg[spans]).view(unsigned), leg_w, out=legs)
        legs |= (cols - right_leg[spans]).view(unsigned) < leg_w
        walker = mask[:, top:bottom]  # the rows the walker can cover
        bboxes[spans] = bounding_boxes(walker) + [0, top, 0, top]
        centroids[spans] = centroids_x(walker)
        np.multiply(mask, np.uint8(fg - background_level), out=pixels[spans])
        pixels[spans] += np.uint8(background_level)
        if spec.noise_rate > 0.0:
            for frame in pixels[spans]:
                rng.random(out=salt)
                np.copyto(frame, np.uint8(fg), where=salt < spec.noise_rate)
    truth = WalkerTruth(
        period_frames=spec.period_frames,
        stride_px=spec.stride_px,
        bboxes=bboxes,
        centroids=centroids,
    )
    return FrameSequence._owning(pixels), truth


def write_truth_csv(truth: WalkerTruth, path) -> None:
    """Emit the ground truth beside the frames."""
    lines = [f"# period_frames={truth.period_frames} stride_px={truth.stride_px}"]
    lines.append("frame,x_min,y_min,x_max,y_max,centroid_x")
    for i, (box, cx) in enumerate(zip(truth.bboxes.tolist(), truth.centroids), start=1):
        lines.append(f"{i},{','.join(map(str, box))},{cx:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
