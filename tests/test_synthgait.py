import numpy as np
import pytest

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
    widths = [0 if b is None else b.width for b in truth.bboxes]
    sig = width_signal_from_widths(widths)
    assert estimate_period(sig) == 30


def width_signal_from_widths(widths):
    from gaitlock.gaitcycle import WidthSignal

    return WidthSignal(np.asarray(widths, dtype=float), fps=25.0)


def test_truth_bboxes_match_segmentation_within_2px():
    seq, truth = generate(spec_for(period=20, noise=0.01, seed=3), 260, 100, 70)
    boxes = bounding_boxes(segment_all(seq))
    for (x_min, y_min, x_max, y_max), expected in zip(boxes, truth.bboxes):
        assert x_max >= x_min  # not empty
        assert abs(x_min - expected.x_min) <= 2
        assert abs(x_max - expected.x_max) <= 2
        assert abs(y_min - expected.y_min) <= 2
        assert abs(y_max - expected.y_max) <= 2


def test_estimated_period_within_one_frame_of_truth():
    for period, seed in ((12, 0), (20, 1), (28, 2), (33, 3)):
        seq, truth = generate(
            spec_for(period=period, noise=0.01, seed=seed), 300, 100, 3 * period + 8
        )
        masks = segment_all(seq)
        estimated = estimate_period(width_signal(bounding_boxes(masks), 25.0))
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


def test_truth_record_fields():
    _, truth = generate(spec_for(), 260, 100, 76)
    assert isinstance(truth, WalkerTruth)
    assert truth.period_frames == 24
    assert truth.stride_px == 40
    assert len(truth.bboxes) == 76
    assert truth.centroids.shape == (76,)
