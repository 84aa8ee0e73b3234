import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitlock.background import model_median
from gaitlock.errors import SpecOutOfBounds
from gaitlock.gaitcycle import estimate_period, width_signal
from gaitlock.segmentation import bounding_boxes, segment_sequence
from gaitlock.synthgait import WalkerSpec, WalkerTruth, generate, write_truth_csv


def spec_for(period=24, noise=0.0, seed=0, **kw):
    defaults = dict(
        body_height=60,
        body_width=18,
        period_frames=period,
        stride_px=40,
        leg_swing_amplitude=30,
        start_x=40,
        noise_rate=noise,
        seed=seed,
    )
    defaults.update(kw)
    return WalkerSpec(**defaults)


def segment_all(seq):
    return segment_sequence(seq, model_median(seq), "auto")


def test_same_spec_and_seed_bit_identical():
    a, _ = generate(spec_for(noise=0.02, seed=5), 260, 100, 80)
    b, _ = generate(spec_for(noise=0.02, seed=5), 260, 100, 80)
    assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))


def test_different_seed_changes_noise():
    a, _ = generate(spec_for(noise=0.02, seed=5), 260, 100, 80)
    c, _ = generate(spec_for(noise=0.02, seed=6), 260, 100, 80)
    assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


def test_width_signal_period_matches_spec_without_noise():
    seq, truth = generate(spec_for(period=30), 300, 100, 120)
    widths = truth.bboxes[:, 2] - truth.bboxes[:, 0] + 1
    sig = width_signal_from_widths(widths)
    assert estimate_period(sig) == 30


def width_signal_from_widths(widths):
    return np.asarray(widths, dtype=float)


def test_truth_bboxes_match_segmentation_within_2px():
    seq, truth = generate(spec_for(period=20, noise=0.01, seed=3), 260, 100, 70)
    boxes = bounding_boxes(segment_all(seq))
    for (x_min, y_min, x_max, y_max), (ex_min, ey_min, ex_max, ey_max) in zip(boxes, truth.bboxes):
        assert x_max >= x_min  # not empty
        assert abs(x_min - ex_min) <= 2
        assert abs(x_max - ex_max) <= 2
        assert abs(y_min - ey_min) <= 2
        assert abs(y_max - ey_max) <= 2


def test_estimated_period_within_one_frame_of_truth():
    for period, seed in ((12, 0), (20, 1), (28, 2), (33, 3)):
        seq, truth = generate(
            spec_for(period=period, noise=0.01, seed=seed), 300, 100, 3 * period + 8
        )
        masks = segment_all(seq)
        estimated = estimate_period(width_signal(bounding_boxes(masks)))
        assert abs(estimated - truth.period_frames) <= 1


def test_body_height_difference_survives_the_pipeline():
    from gaitlock.features import spatial_features

    means = []
    for height in (90, 120):
        seq, _ = generate(
            spec_for(body_height=height, body_width=26, leg_swing_amplitude=40, noise=0.005),
            300,
            160,
            80,
        )
        means.append(spatial_features(bounding_boxes(segment_all(seq)))[0])
    assert means[1] - means[0] >= 20.0


def test_walker_out_of_bounds():
    with pytest.raises(SpecOutOfBounds):
        generate(spec_for(), 120, 100, 80)  # walks off the right edge
    with pytest.raises(SpecOutOfBounds):
        generate(spec_for(body_height=90), 260, 80, 80)  # taller than the frame


def test_generation_preconditions():
    with pytest.raises(ValueError):
        generate(spec_for(period=24), 260, 100, 50)  # < 3 periods
    with pytest.raises(ValueError):
        spec_for(period=6)  # below the minimum period
    with pytest.raises(ValueError):
        spec_for(noise=1.0)


def test_centroid_tracks_translation():
    seq, truth = generate(spec_for(), 260, 100, 76)
    drift = np.diff(truth.centroids)
    # mean advance per frame equals stride / period
    assert np.mean(drift) == pytest.approx(40 / 24, abs=0.05)


def test_truth_csv(tmp_path):
    seq, truth = generate(spec_for(), 260, 100, 76)
    path = tmp_path / "truth.csv"
    write_truth_csv(truth, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# period_frames=24 stride_px=40"
    assert lines[1] == "frame,x_min,y_min,x_max,y_max,centroid_x"
    assert len(lines) == 2 + len(seq)
    # the box rows are those of the walker pixels, which alone differ from the background 40
    boxes = np.loadtxt(path, delimiter=",", skiprows=2, usecols=(1, 2, 3, 4), dtype=np.int64)
    assert np.array_equal(boxes, bounding_boxes(seq.pixels != 40))


def test_truth_record_fields():
    _, truth = generate(spec_for(), 260, 100, 76)
    assert isinstance(truth, WalkerTruth)
    assert truth.period_frames == 24
    assert truth.stride_px == 40
    assert len(truth.bboxes) == 76
    assert truth.bboxes.shape == (76, 4) and truth.bboxes.dtype == np.int64
    assert truth.centroids.shape == (76,)


def reference_bounding_box(mask):
    """The per-frame box ``generate`` recorded before its truth became box
    rows: (x_min, y_min, x_max, y_max) of the nonzero pixels, or None."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1])


def reference_walker_mask(spec, t, frame_w, frame_h):
    """The walker of frame ``t`` painted one row span at a time, as
    ``generate`` painted it before it rendered blocks of frames."""
    cx = spec.start_x + spec.direction * spec.stride_px * t / spec.period_frames
    top = frame_h - spec.body_height - 5
    if top < 0:
        raise SpecOutOfBounds(f"walker of height {spec.body_height} exceeds frame height {frame_h}")
    leg_len = spec.body_height // 2
    hip_row = top + spec.body_height - leg_len
    leg_w = max(3, spec.body_width // 3)
    sep = spec.leg_swing_amplitude * abs(math.sin(math.pi * t / spec.period_frames))

    mask = np.zeros((frame_h, frame_w), dtype=bool)
    spans = [(r, cx - spec.body_width / 2.0, spec.body_width) for r in range(top, hip_row)]
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


def reference_generate(spec, frame_w, frame_h, n_frames, background_level=40):
    """``generate`` as it was before its truth became box rows and before
    it rendered blocks of frames, kept as the oracle: (frames, boxes,
    centroids), the centroid of each frame taken from ``np.nonzero``."""
    fg = min(255, background_level + 100)
    rng = np.random.default_rng(spec.seed)
    frames, boxes = [], []
    centroids = np.empty(n_frames)
    for t in range(n_frames):
        walker = reference_walker_mask(spec, t, frame_w, frame_h)
        pixels = np.full((frame_h, frame_w), background_level, dtype=np.uint8)
        pixels[walker] = fg
        boxes.append(reference_bounding_box(walker))
        centroids[t] = float(np.nonzero(walker)[1].mean())
        if spec.noise_rate > 0.0:
            salt = (rng.random((frame_h, frame_w)) < spec.noise_rate) & ~walker
            pixels[salt] = fg
        frames.append(pixels)
    return np.array(frames), boxes, centroids


@st.composite
def walker_cases(draw):
    """A spec, frame size, length and background level; narrow or short
    frames and starts near an edge make walkers that leave the frame, on
    either side or at the top."""
    period = draw(st.integers(8, 16))
    height = draw(st.integers(8, 40))
    frame_w = draw(st.integers(20, 200))
    spec = WalkerSpec(
        body_height=height,
        body_width=draw(st.integers(3, 20)),
        period_frames=period,
        stride_px=draw(st.integers(0, 30)),
        leg_swing_amplitude=draw(st.integers(0, 24)),
        start_x=draw(st.integers(-5, frame_w + 5)),
        direction=draw(st.sampled_from((-1, 1))),
        noise_rate=draw(st.sampled_from((0.0, 0.01, 0.2))),
        seed=draw(st.integers(0, 2**16)),
    )
    size = (frame_w, height + 5 + draw(st.integers(-2, 20)))
    return spec, size, 3 * period + draw(st.integers(0, 4)), draw(st.sampled_from((0, 40, 200)))


@settings(max_examples=200, deadline=None)
@given(walker_cases())
@example((WalkerSpec(body_height=30, body_width=9, period_frames=8, stride_px=12,
                     leg_swing_amplitude=10, start_x=30, noise_rate=0.01), (120, 50), 24, 40))
@example((WalkerSpec(body_height=30, body_width=9, period_frames=8, stride_px=12,
                     leg_swing_amplitude=10, start_x=90, direction=-1), (120, 50), 26, 200))
@example((WalkerSpec(body_height=30, body_width=9, period_frames=8, stride_px=30,
                     leg_swing_amplitude=10, start_x=30), (60, 50), 24, 40))  # leaves on the right
@example((WalkerSpec(body_height=30, body_width=9, period_frames=8, stride_px=30,
                     leg_swing_amplitude=10, start_x=30, direction=-1), (60, 50), 24, 40))
@example((WalkerSpec(body_height=50, body_width=9), (60, 50), 72, 40))  # taller than the frame
@example((WalkerSpec(body_height=30, body_width=9, period_frames=8, stride_px=0,
                     leg_swing_amplitude=40, start_x=15), (30, 50), 24, 40))  # both legs leave at once
# 272x104 frames come in blocks of 18: a walk that ends at a block edge,
# one that ends a frame past it, and a walker that first leaves the frame
# in the second block, by its torso or by its left leg
@example((WalkerSpec(body_height=60, body_width=18, period_frames=12, stride_px=20,
                     leg_swing_amplitude=30, start_x=40, noise_rate=0.01), (272, 104), 36, 40))
@example((WalkerSpec(body_height=60, body_width=18, period_frames=12, stride_px=20,
                     leg_swing_amplitude=30, start_x=40, noise_rate=0.01), (272, 104), 37, 40))
@example((WalkerSpec(body_height=60, body_width=18, period_frames=12, stride_px=120,
                     leg_swing_amplitude=30, start_x=40, noise_rate=0.01), (272, 104), 36, 40))
@example((WalkerSpec(body_height=60, body_width=18, period_frames=12, stride_px=30,
                     leg_swing_amplitude=60, start_x=80, direction=-1), (272, 104), 36, 40))
def test_generate_matches_the_per_frame_reference(case):
    spec, (frame_w, frame_h), n_frames, level = case
    try:
        want = reference_generate(spec, frame_w, frame_h, n_frames, level)
    except SpecOutOfBounds as exc:
        with pytest.raises(SpecOutOfBounds) as got:
            generate(spec, frame_w, frame_h, n_frames, level)
        assert str(got.value) == str(exc)
        return
    frames, boxes, centroids = want
    seq, truth = generate(spec, frame_w, frame_h, n_frames, level)
    assert seq.pixels.tobytes() == frames.tobytes()
    assert truth.bboxes.dtype == np.int64 and truth.bboxes.shape == (n_frames, 4)
    assert [tuple(row) for row in truth.bboxes.tolist()] == boxes
    assert truth.centroids.tobytes() == centroids.tobytes()
