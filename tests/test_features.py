import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaitlock.errors import (
    BadComponentLength,
    BadDimensions,
    EmptyWindow,
    TooFewFrames,
)
from gaitlock.features import (
    FEATURE_NAMES,
    fuse,
    haar_dwt2,
    haar_idwt2,
    series_stats,
    spatial_features,
    subband_energies,
    temporal_features,
    wavelet_features,
    wavelet_statistics,
)
from gaitlock.gaitcycle import width_signal
from gaitlock.segmentation import (
    EMPTY_BOX,
    bounding_boxes,
    centroids_x,
)

ATAN2_DEG = math.degrees(math.atan(2.0))  # 63.43494882292201


def box(w, h, x0=0, y0=0):
    return (x0, y0, x0 + w - 1, y0 + h - 1)


class TestSpatial:
    def test_constant_boxes(self):
        s = spatial_features([box(50, 100)] * 4)
        assert np.allclose(s, [100.0, 50.0, ATAN2_DEG, 2.0])

    def test_square_box(self):
        s = spatial_features([box(40, 40)])
        assert np.allclose(s, [40.0, 40.0, 45.0, 1.0])

    def test_alternating_heights(self):
        boxes = [box(50, 90), box(50, 110)] * 3
        s = spatial_features(boxes)
        assert s[0] == 100.0
        assert s[1] == 50.0

    def test_missing_boxes_excluded(self):
        s = spatial_features([EMPTY_BOX, box(50, 100), EMPTY_BOX])
        assert np.allclose(s, [100.0, 50.0, ATAN2_DEG, 2.0])

    def test_all_missing(self):
        with pytest.raises(EmptyWindow):
            spatial_features([EMPTY_BOX, EMPTY_BOX])

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        boxes = [box(int(rng.integers(20, 40)), int(rng.integers(60, 90))) for _ in range(8)]
        shifted = np.add(boxes, (17, -3, 17, -3))
        assert np.allclose(spatial_features(boxes), spatial_features(shifted))


class TestTemporal:
    def test_cadence(self):
        t = temporal_features(np.arange(61, dtype=float), period=30, fps=25)
        assert t[2] == pytest.approx(100.0)  # 2 * 1500 / 30

    def test_stride_step_velocity(self):
        # uniform 80/30 px per frame: displacement over one 30-frame cycle is 80
        x = np.arange(61, dtype=float) * (80.0 / 30.0)
        t = temporal_features(x, period=30, fps=25)
        assert t[0] == pytest.approx(80.0)
        assert t[1] == pytest.approx(40.0)
        assert t[3] == pytest.approx(80.0 * 0.5 * 100.0)  # 4000 px/min

    def test_nan_centroids_skipped(self):
        x = np.arange(25, dtype=float)
        x[3] = np.nan
        t = temporal_features(x, period=10, fps=25)
        assert t[0] == pytest.approx(10.0)

    def test_window_too_small(self):
        with pytest.raises(EmptyWindow):
            temporal_features(np.arange(10, dtype=float), period=10, fps=25)

    def test_all_nan(self):
        with pytest.raises(EmptyWindow):
            temporal_features(np.full(25, np.nan), period=10, fps=25)

    @pytest.mark.parametrize("fps", [0.0, -25.0, math.inf, math.nan])
    def test_fps_must_be_positive_and_finite(self, fps):
        with pytest.raises(ValueError, match="fps"):
            temporal_features(np.arange(25, dtype=float), period=10, fps=fps)


class TestHaar:
    def test_single_hot_block(self):
        ll, lh, hl, hh = haar_dwt2([[4.0, 0.0], [0.0, 0.0]])
        assert (ll[0, 0], lh[0, 0], hl[0, 0], hh[0, 0]) == (2.0, 2.0, 2.0, 2.0)

    def test_constant_block(self):
        ll, lh, hl, hh = haar_dwt2([[1.0, 1.0], [1.0, 1.0]])
        assert ll[0, 0] == 2.0
        assert lh[0, 0] == hl[0, 0] == hh[0, 0] == 0.0

    def test_constant_image_has_zero_detail(self):
        ll, lh, hl, hh = haar_dwt2(np.ones((8, 8)))
        assert np.allclose(ll, 2.0)
        assert not lh.any() and not hl.any() and not hh.any()

    def test_parseval_and_inverse_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(0, 3, size=(64, 64))
            subbands = haar_dwt2(x)
            energy_in = (x * x).sum()
            energy_out = sum((s * s).sum() for s in subbands)
            assert abs(energy_in - energy_out) <= 1e-9 * energy_in
            assert np.abs(haar_idwt2(*subbands) - x).max() <= 1e-12

    def test_bad_dimensions(self):
        for bad in (np.ones((3, 3)), np.ones((4, 8)), np.ones((1, 1)), np.ones((6, 6))):
            with pytest.raises(BadDimensions):
                haar_dwt2(bad)


class TestWavelet:
    def _solid_mask(self, w=20, h=40, frame=(64, 64), at=(5, 5)):
        grid = np.zeros(frame, dtype=bool)
        grid[at[0]:at[0] + h, at[1]:at[1] + w] = True
        return grid

    def test_identical_frames_have_zero_sigma(self):
        feats = wavelet_features([self._solid_mask()] * 5)
        assert feats[1] == feats[3] == feats[5] == 0.0

    def test_all_ones_grid_has_no_detail_energy(self):
        full = np.ones((64, 64), dtype=bool)
        feats = wavelet_features([full, full])
        assert feats[0] == pytest.approx(4.0)  # LL coefficients are all 2
        assert feats[2] == feats[3] == feats[4] == feats[5] == 0.0

    def test_translation_invariance(self):
        a = [self._solid_mask(at=(2, 3)), self._solid_mask(w=22, at=(2, 3))]
        b = [self._solid_mask(at=(20, 30)), self._solid_mask(w=22, at=(11, 7))]
        assert np.allclose(wavelet_features(a), wavelet_features(b))

    def test_window_errors(self):
        empty = np.zeros((8, 8), dtype=bool)
        with pytest.raises(EmptyWindow):
            wavelet_features([empty, empty])
        with pytest.raises(TooFewFrames):
            wavelet_features([self._solid_mask(), empty])


def test_series_stats_hand_case():
    mu, sigma = series_stats([2.0, 4.0, 6.0])
    assert (mu, sigma) == (4.0, 2.0)


def test_series_stats_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        values = rng.normal(10, 4, size=int(rng.integers(2, 40)))
        mu, sigma = series_stats(values)
        mu_oracle = sum(values) / len(values)
        var_oracle = sum((v - mu_oracle) ** 2 for v in values) / (len(values) - 1)
        assert mu == pytest.approx(mu_oracle, abs=1e-12)
        assert sigma == pytest.approx(math.sqrt(var_oracle), abs=1e-12)


def test_subband_energy_is_mean_square():
    # a 64x64 silhouette is its own wavelet grid; the left half's 2x2
    # blocks [[1, 1], [0, 1]] have LL 3/2, LH -1/2, HL 1/2, the right
    # half's full blocks LL 2, so each energy is a mean of two squares
    masks = np.zeros((1, 70, 80), dtype=bool)
    grid = masks[0, 3:67, 5:69]
    grid[:] = True
    grid[1::2, 0:32:2] = False
    boxes = bounding_boxes(masks)
    assert boxes.tolist() == [[5, 3, 68, 66]]
    energies = subband_energies(masks, boxes)
    assert energies.tolist() == [[(2.25 + 4.0) / 2, 0.25 / 2, 0.25 / 2]]


class TestFuse:
    def test_full_fusion_is_14(self):
        fused = fuse(np.ones(4), np.ones(4) * 2, np.ones(6) * 3)
        assert fused.size == 14
        assert fused.tolist() == [1.0] * 4 + [2.0] * 4 + [3.0] * 6

    def test_single_component_variant(self):
        assert fuse(spatial=np.ones(4)).size == 4
        assert fuse(wavelet=np.ones(6)).size == 6

    def test_bad_lengths(self):
        with pytest.raises(BadComponentLength):
            fuse(np.ones(4), np.ones(3), np.ones(6))
        with pytest.raises(BadComponentLength):
            fuse()

    def test_fused_ordering_and_names(self):
        assert fuse(np.arange(4), np.arange(4, 8), np.arange(8, 14)).tolist() == list(range(14))
        assert len(FEATURE_NAMES) == 14


def reference_centroid_x(mask):
    """Mean column of the foreground pixels, NaN when empty."""
    return float(np.nonzero(mask)[1].mean()) if mask.any() else float("nan")


def reference_box(mask):
    """[x_min, y_min, x_max, y_max] of the foreground pixels, found by
    visiting every pixel; ``EMPTY_BOX`` when there is none."""
    points = [(c, r) for r in range(mask.shape[0]) for c in range(mask.shape[1]) if mask[r, c]]
    if not points:
        return list(EMPTY_BOX)
    cols, rows = zip(*points)
    return [min(cols), min(rows), max(cols), max(rows)]


def reference_subband_energies(mask):
    """LL/LH/HL energies of one silhouette in float64: crop to its box,
    resample to 64x64 by nearest neighbour, one Haar level, mean square."""
    x_min, y_min, x_max, y_max = reference_box(mask)
    crop = mask[y_min:y_max + 1, x_min:x_max + 1].astype(np.float64)
    h, w = crop.shape
    grid = crop[np.ix_(np.arange(64) * h // 64, np.arange(64) * w // 64)]
    a, b, c, d = grid[0::2, 0::2], grid[0::2, 1::2], grid[1::2, 0::2], grid[1::2, 1::2]
    bands = ((a + b + c + d) / 2.0, (a - b + c - d) / 2.0, (a + b - c - d) / 2.0)
    return [float((band * band).sum() / band.size) for band in bands]


def _one_pixel_masks():
    masks = np.zeros((4, 5, 7), dtype=bool)
    masks[0, 0, 0] = masks[1, 4, 6] = masks[2, 2, 3] = masks[3, 0, 6] = True
    return masks


def _empty_inside_the_window():
    masks = np.zeros((4, 6, 6), dtype=bool)
    masks[0, 1:5, 2:4] = masks[3, 0:6, 1:3] = True
    return masks


def _larger_than_the_grid():
    # boxes over 64 pixels tall and wide are sampled down, not up
    rng = np.random.default_rng(3)
    masks = rng.random((3, 80, 130)) < 0.6
    masks[1, 5:75, 10:120] = True
    return masks


def _taller_than_a_byte():
    # columns of more than 255 foreground pixels overflow a uint8 count
    masks = np.zeros((3, 300, 5), dtype=bool)
    masks[0, :, 1] = masks[0, 10:266, 4] = True
    masks[1, 44:300, 0] = masks[1, :, 2] = True
    masks[2, 299, 3] = True
    return masks


@settings(max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12))))
@example(_one_pixel_masks())
@example(np.ones((2, 5, 7), dtype=bool))  # full frames
@example(_empty_inside_the_window())
@example(np.zeros((3, 4, 4), dtype=bool))
@example(_larger_than_the_grid())
@example(_taller_than_a_byte())
@example(np.ones((2, 256, 3), dtype=bool))
def test_descriptors_match_per_mask_references(masks):
    boxes = bounding_boxes(masks)
    singles = [reference_box(m) for m in masks]
    assert boxes.tolist() == singles
    assert [bounding_boxes(m[None])[0].tolist() for m in masks] == singles
    widths = np.array([x_max - x_min + 1 for x_min, _, x_max, _ in singles], dtype=np.float64)
    assert width_signal(boxes).tobytes() == widths.tobytes()

    want = np.array([reference_centroid_x(m) for m in masks])
    got = centroids_x(masks)
    empty = np.isnan(want)
    assert np.array_equal(np.isnan(got), empty)
    assert got[~empty].tobytes() == want[~empty].tobytes()
    singles_x = np.array([centroids_x(m[None])[0] for m in masks])
    assert singles_x[~empty].tobytes() == want[~empty].tobytes()

    present = [m for m in masks if m.any()]
    expected = np.array([reference_subband_energies(m) for m in present]).reshape(-1, 3)
    energies = subband_energies(masks, boxes)
    assert energies.tobytes() == expected.tobytes()
    one_by_one = [subband_energies(m[None], bounding_boxes(m[None])) for m in present]
    assert np.array(one_by_one).reshape(-1, 3).tobytes() == expected.tobytes()
    if len(present) < 2:
        error = EmptyWindow if not present else TooFewFrames
        with pytest.raises(error):
            wavelet_statistics(energies)
        with pytest.raises(error):
            wavelet_features(list(masks))
        return
    six = np.array([v for s in range(3) for v in series_stats(expected[:, s])])
    assert wavelet_statistics(energies).tobytes() == six.tobytes()
    assert wavelet_features(list(masks)).tobytes() == six.tobytes()
