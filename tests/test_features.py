import math

import numpy as np
import pytest

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
    subband_energy,
    temporal_features,
    wavelet_features,
)
from gaitlock.segmentation import BoundingBox, SilhouetteMask

ATAN2_DEG = math.degrees(math.atan(2.0))  # 63.43494882292201


def box(w, h, x0=0, y0=0):
    return BoundingBox(x0, y0, x0 + w - 1, y0 + h - 1)


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
        s = spatial_features([None, box(50, 100), None])
        assert np.allclose(s, [100.0, 50.0, ATAN2_DEG, 2.0])

    def test_all_missing(self):
        with pytest.raises(EmptyWindow):
            spatial_features([None, None])

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        boxes = [box(int(rng.integers(20, 40)), int(rng.integers(60, 90))) for _ in range(8)]
        shifted = [b.shifted(17, -3) for b in boxes]
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
        return SilhouetteMask(grid)

    def test_identical_frames_have_zero_sigma(self):
        feats = wavelet_features([self._solid_mask()] * 5)
        assert feats[1] == feats[3] == feats[5] == 0.0

    def test_all_ones_grid_has_no_detail_energy(self):
        full = SilhouetteMask(np.ones((64, 64), dtype=bool))
        feats = wavelet_features([full, full])
        assert feats[0] == pytest.approx(4.0)  # LL coefficients are all 2
        assert feats[2] == feats[3] == feats[4] == feats[5] == 0.0

    def test_translation_invariance(self):
        a = [self._solid_mask(at=(2, 3)), self._solid_mask(w=22, at=(2, 3))]
        b = [self._solid_mask(at=(20, 30)), self._solid_mask(w=22, at=(11, 7))]
        assert np.allclose(wavelet_features(a), wavelet_features(b))

    def test_window_errors(self):
        empty = SilhouetteMask(np.zeros((8, 8), dtype=bool))
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
    assert subband_energy(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(30.0 / 4.0)


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
