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


def _walker_mask(spec: WalkerSpec, t: int, frame_w: int, frame_h: int) -> np.ndarray:
    cx = spec.start_x + spec.direction * spec.stride_px * t / spec.period_frames
    top = frame_h - spec.body_height - _GROUND_MARGIN
    if top < 0:
        raise SpecOutOfBounds(f"walker of height {spec.body_height} exceeds frame height {frame_h}")
    leg_len = spec.body_height // 2
    hip_row = top + spec.body_height - leg_len
    leg_w = max(3, spec.body_width // 3)
    sep = _leg_separation(spec, t)

    mask = np.zeros((frame_h, frame_w), dtype=bool)
    spans = [(r, cx - spec.body_width / 2.0, spec.body_width) for r in range(top, hip_row)]
    # legs pivot at the hip: linear sweep from the hip centre out to the
    # foot keeps each leg 8-connected to the torso at any separation
    for side in (-1.0, 1.0):
        for r in range(hip_row, top + spec.body_height):
            frac = (r - hip_row + 1) / leg_len
            center = cx + side * (sep / 2.0) * frac
            spans.append((r, center - leg_w / 2.0, leg_w))
    for row, left, width in spans:
        c0 = int(round(left))
        c1 = c0 + int(width)
        if c0 < 0 or c1 > frame_w:
            raise SpecOutOfBounds(
                f"walker leaves the frame at t={t} (columns {c0}..{c1 - 1} of {frame_w})"
            )
        mask[row, c0:c1] = True
    return mask


def generate(
    spec: WalkerSpec,
    frame_w: int = 352,
    frame_h: int = 144,
    n_frames: int | None = None,
    background_level: int = 40,
    fps: float = 25.0,
) -> tuple[FrameSequence, WalkerTruth]:
    """Render ``n_frames`` frames (default three periods plus 8) and the
    exact per-frame ground truth.

    The walker is drawn at ``background_level + 100`` (clamped) on a
    uniform background; salt noise flips background pixels to the walker
    intensity with probability ``noise_rate`` per frame. All randomness
    derives from ``spec.seed``.
    """
    if n_frames is None:
        n_frames = 3 * spec.period_frames + 8
    if n_frames < 3 * spec.period_frames:
        raise ValueError(
            f"need n_frames >= 3 * period ({3 * spec.period_frames}), got {n_frames}"
        )
    if not 0 <= background_level <= 255:
        raise ValueError("background_level must lie in [0, 255]")
    fg = min(255, background_level + 100)
    rng = np.random.default_rng(spec.seed)
    frames = []
    bboxes = np.empty((n_frames, 4), dtype=np.int64)
    centroids = np.empty(n_frames)
    for t in range(n_frames):
        walker = _walker_mask(spec, t, frame_w, frame_h)
        pixels = np.full((frame_h, frame_w), background_level, dtype=np.uint8)
        pixels[walker] = fg
        bboxes[t] = bounding_boxes(walker[None])[0]
        centroids[t] = centroids_x(walker[None])[0]
        if spec.noise_rate > 0.0:
            salt = (rng.random((frame_h, frame_w)) < spec.noise_rate) & ~walker
            pixels[salt] = fg
        frames.append(pixels)
    truth = WalkerTruth(
        period_frames=spec.period_frames,
        stride_px=spec.stride_px,
        bboxes=bboxes,
        centroids=centroids,
    )
    return FrameSequence(frames, fps), truth


def write_truth_csv(truth: WalkerTruth, path) -> None:
    """Emit the ground truth beside the frames."""
    lines = [f"# period_frames={truth.period_frames} stride_px={truth.stride_px}"]
    lines.append("frame,x_min,y_min,x_max,y_max,centroid_x")
    for i, (box, cx) in enumerate(zip(truth.bboxes.tolist(), truth.centroids), start=1):
        lines.append(f"{i},{','.join(map(str, box))},{cx:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
