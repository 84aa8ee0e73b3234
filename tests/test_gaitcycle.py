import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaitlock import gaitcycle
from gaitlock.errors import InsufficientCycles, NoPeriodicity, SequenceTooShort
from gaitlock.gaitcycle import (
    GaitCycle,
    estimate_period,
    partition_cycles,
    select_feature_window,
    width_signal,
)
from gaitlock.segmentation import bounding_boxes


def sine_signal(period, n, base=50.0, amp=10.0, phase=0.0):
    t = np.arange(n)
    return base + amp * np.sin(2 * np.pi * (t - phase) / period)


class TestEstimatePeriod:
    def test_pure_sinusoid(self):
        assert estimate_period(sine_signal(30, 120)) == 30

    def test_exact_recovery_over_period_range(self):
        for p in range(10, 41):
            assert estimate_period(sine_signal(p, 4 * p)) == p

    def test_constant_signal_has_no_period(self):
        with pytest.raises(NoPeriodicity):
            estimate_period(np.full(60, 50.0))

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            estimate_period(np.arange(11, dtype=float))

    def test_shift_and_scale_invariance(self):
        base = sine_signal(18, 90)
        shifted = base + 1000.0
        scaled = base * 7.5
        assert estimate_period(base) == estimate_period(shifted) == estimate_period(scaled) == 18

    def test_arch_train_like_walker_widths(self):
        # rectified-sine arches with a clipped floor, as a leg pair produces
        for p in (12, 20, 33):
            t = np.arange(4 * p)
            sep = 30.0 * np.abs(np.sin(np.pi * t / p))
            w = np.maximum(20.0, sep + 4.0)
            assert estimate_period(w) == p


@pytest.mark.parametrize("signal", [np.float64(50.0), np.full((2, 30), 50.0)], ids=["0-D", "2-D"])
def test_signal_must_be_one_dimensional(signal):
    with pytest.raises(ValueError, match="1-D"):
        estimate_period(signal)
    with pytest.raises(ValueError, match="1-D"):
        partition_cycles(signal, 4)


class TestPartitionCycles:
    def test_tiling_from_first_peak(self):
        # peak of the cosine at frame 5, period 30, 90 frames
        t = np.arange(90)
        sig = 50 + 10 * np.cos(2 * np.pi * (t - 5) / 30)
        cycles = partition_cycles(sig, 30)
        assert [(c.start_frame, c.end_frame) for c in cycles] == [(5, 34), (35, 64)]

    def test_single_period_starting_at_maximum(self):
        t = np.arange(30)
        sig = 50 + 10 * np.cos(2 * np.pi * t / 30)
        cycles = partition_cycles(sig, 30)
        assert [(c.start_frame, c.end_frame) for c in cycles] == [(0, 29)]

    def test_too_short(self):
        with pytest.raises(SequenceTooShort):
            partition_cycles(np.ones(29), 30)

    def test_cycles_are_disjoint_contiguous_and_period_long(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = int(rng.integers(5, 20))
            n = int(rng.integers(3 * p, 6 * p))
            sig = 50 + 10 * np.sin(2 * np.pi * np.arange(n) / p) + rng.normal(0, 0.5, n)
            cycles = partition_cycles(sig, p)
            for a, b in zip(cycles, cycles[1:]):
                assert b.start_frame == a.end_frame + 1
            assert all(c.period_frames == p for c in cycles)
            assert all(c.end_frame - c.start_frame + 1 == p for c in cycles)


def reference_smooth3(values):
    """The 3-frame smoothing as a loop of numpy means, kept as the oracle."""
    n = values.size
    out = np.empty(n)
    for i in range(n):
        out[i] = values[max(0, i - 1):min(n, i + 2)].mean()
    return out


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.floats(-1e9, 1e9), st.integers(0, 400).map(float), st.sampled_from((0.0, -0.0, 1e-300)),
)))
@example(np.array([-0.0]))
@example(np.array([-0.0, -0.0, -0.0]))
@example(np.array([-5e-324, -0.0, 5e-324]))
@example(np.array([0.1, 0.2, 0.3]))  # (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3)
def test_smooth3_matches_the_loop_of_means(values):
    assert gaitcycle._smooth3(values).tobytes() == reference_smooth3(values).tobytes()


class TestFeatureWindow:
    def test_first_two_of_many(self):
        cycles = [GaitCycle(i * 10, i * 10 + 9, 10) for i in range(4)]
        assert select_feature_window(cycles) == cycles[:2]

    def test_exactly_two(self):
        cycles = [GaitCycle(0, 9, 10), GaitCycle(10, 19, 10)]
        assert select_feature_window(cycles) == cycles

    def test_insufficient(self):
        with pytest.raises(InsufficientCycles):
            select_feature_window([GaitCycle(0, 9, 10)])


def test_gait_cycle_invariants():
    with pytest.raises(ValueError):
        GaitCycle(0, 2, 3)  # period below the degenerate limit
    with pytest.raises(ValueError):
        GaitCycle(0, 9, 11)  # bounds disagree with period


def test_width_signal_from_masks():
    masks = np.zeros((2, 6, 10), dtype=bool)  # frame 0 empty -> width 0
    masks[1, 2:4, 3:8] = True
    sig = width_signal(bounding_boxes(masks))
    assert sig.tolist() == [0.0, 5.0]
    assert len(sig) == 2
