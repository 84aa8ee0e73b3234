import time
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaitlock import background
from gaitlock.background import (
    BackgroundModel,
    load_background,
    model_cdm,
    model_histogram,
    model_median,
    otsu_from_histograms,
    otsu_histograms,
    save_background,
)
from gaitlock.errors import DimensionMismatch, TooFewFrames
from gaitlock.imagery import FrameSequence, load_sequence, save_sequence, write_pgm
from gaitlock.synthgait import WalkerSpec, generate


def seq_1x1(values):
    return FrameSequence([np.array([[v]], dtype=np.uint8) for v in values])


def seq_from_stack(stack):
    return FrameSequence(list(stack))


def brute_mode(values):
    # lowest value among the most frequent ones
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def brute_lower_median(values):
    return sorted(values)[(len(values) - 1) // 2]


def brute_cdm(values, threshold):
    # walk the frames, breaking where a change fires; the first longest run wins
    runs = [[values[0]]]
    for prev, cur in zip(values, values[1:]):
        if abs(int(cur) - int(prev)) >= threshold:
            runs.append([])
        runs[-1].append(cur)
    return brute_lower_median(max(runs, key=len))


def brute_longest_run(values, threshold):
    # the frames of brute_cdm's run: the first of the longest unchanged runs
    runs = [[values[0]]]
    for prev, cur in zip(values, values[1:]):
        if abs(int(cur) - int(prev)) >= threshold:
            runs.append([])
        runs[-1].append(cur)
    return max(runs, key=len)


def otsu_split(values):
    # the Otsu split of 8-bit values, as one row of the batched functions
    row = np.asarray(values, dtype=np.uint8).reshape(1, -1)
    return int(otsu_from_histograms(otsu_histograms(row))[0])


def brute_between_class_variance(values, t):
    # w0 * w1 * (mu0 - mu1)^2 for the classes <= t and > t; 0 when one is empty
    low = [v for v in values if v <= t]
    high = [v for v in values if v > t]
    if not low or not high:
        return 0.0
    w0, w1 = len(low) / len(values), len(high) / len(values)
    return w0 * w1 * (sum(low) / len(low) - sum(high) / len(high)) ** 2


@st.composite
def cdm_cases(draw):
    n = draw(st.integers(2, 12))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # few distinct levels make equal-length runs and all-firing pixels common
    levels = draw(st.sampled_from(((0, 255), (10, 30, 50), None)))
    elements = st.integers(0, 255) if levels is None else st.sampled_from(levels)
    stack = draw(arrays(np.uint8, (n, h, w), elements=elements))
    threshold = draw(st.one_of(st.sampled_from(("auto", 0, 1, 255)), st.integers(0, 255)))
    return stack, threshold


def _column(values):
    return np.array(values, dtype=np.uint8)[:, None, None]


class TestMedian:
    def test_constant_sequence(self):
        model = model_median(seq_1x1([128] * 5))
        assert model.reference[0, 0] == 128

    def test_outlier_rejected(self):
        # sorted {5,5,6,7,200}: middle is 6
        assert model_median(seq_1x1([5, 7, 200, 6, 5])).reference[0, 0] == 6

    def test_even_count_takes_lower_middle(self):
        assert model_median(seq_1x1([10, 20, 30, 40])).reference[0, 0] == 20

    def test_occluded_pixel_recovered(self):
        # background 40 visible in 16 of 20 frames
        values = [40] * 20
        for i in (3, 7, 8, 15):
            values[i] = 180
        assert model_median(seq_1x1(values)).reference[0, 0] == 40

    def test_matches_brute_oracle_on_random_stacks(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            stack = rng.integers(0, 256, size=(n, 3, 4), dtype=np.uint8)
            ref = model_median(seq_from_stack(stack)).reference
            for r in range(3):
                for c in range(4):
                    assert ref[r, c] == brute_lower_median(stack[:, r, c].tolist())

    def test_majority_background_recovered_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            bg = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            stack = np.repeat(bg[None], n, axis=0).copy()
            for r in range(h):
                for c in range(w):
                    k = int(rng.integers(0, (n - 1) // 2 + 1))  # strictly < n/2
                    hit = rng.choice(n, size=k, replace=False)
                    stack[hit, r, c] = rng.integers(0, 256, size=k)
            ref = model_median(seq_from_stack(stack)).reference
            assert np.array_equal(ref, bg)


class TestHistogram:
    def test_constant_sequence(self):
        assert model_histogram(seq_1x1([77] * 5)).reference[0, 0] == 77

    def test_mode(self):
        assert model_histogram(seq_1x1([10, 10, 200, 10, 30])).reference[0, 0] == 10

    def test_tie_resolves_to_lowest_intensity(self):
        assert model_histogram(seq_1x1([12, 12, 40, 40, 7])).reference[0, 0] == 12

    def test_matches_brute_oracle_on_random_stacks(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 15))
            # narrow ranges make pixels decided by a majority, wide ones pixels binned
            top = int(rng.choice([4, 256]))
            stack = rng.integers(0, top, size=(n, 4, 3), dtype=np.uint8)
            ref = model_histogram(seq_from_stack(stack)).reference
            for r in range(4):
                for c in range(3):
                    assert ref[r, c] == brute_mode(stack[:, r, c].tolist())

    def test_equals_median_on_per_pixel_constant_sequences(self):
        rng = np.random.default_rng(5)
        bg = rng.integers(0, 256, size=(6, 7), dtype=np.uint8)
        seq = seq_from_stack(np.repeat(bg[None], 9, axis=0))
        assert np.array_equal(
            model_histogram(seq).reference, model_median(seq).reference
        )


class TestCdm:
    def test_static_sequence(self):
        rng = np.random.default_rng(2)
        bg = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
        seq = seq_from_stack(np.repeat(bg[None], 6, axis=0))
        model = model_cdm(seq, threshold=10)
        assert np.array_equal(model.reference, bg)

    def test_hand_trace(self):
        # changes fire at transitions 3->4 and 4->5; longest run is frames 1-3
        model = model_cdm(seq_1x1([10, 10, 10, 50, 10]), threshold=20)
        assert model.reference[0, 0] == 10
        assert model.cdm_threshold == 20

    def test_tie_prefers_earlier_run(self):
        assert model_cdm(seq_1x1([10, 50]), threshold=20).reference[0, 0] == 10

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames):
            model_cdm(seq_1x1([10]), threshold=20)

    @settings(max_examples=300, deadline=None)
    @given(cdm_cases())
    @example((_column([10, 10, 50, 50, 90, 90]), 20))  # three runs of equal length
    @example((_column([0, 255, 0, 255, 0]), 255))  # every transition fires
    @example((_column([0, 255, 0, 255, 0]), "auto"))
    @example((_column([0, 254, 0, 254]), 255))  # nothing fires at 255
    @example((_column([10, 10, 10, 50, 10]), 0))  # threshold 0: every run is one frame
    @example((_column([3, 200]), 20))  # two frames, two runs
    @example((_column([3, 4]), 20))  # two frames, one run
    # two 130-frame runs: equal lengths, starts more than 127 frames apart
    @example((_column([10] * 130 + [200] * 130), 20))
    def test_matches_brute_oracle(self, case):
        stack, threshold = case
        seq = seq_from_stack(stack)
        if threshold == "auto":
            diffs = np.abs(np.diff(stack.astype(np.int16), axis=0)).astype(np.uint8)
            # 256 when every pooled difference is 255: then nothing fires
            threshold = otsu_split(diffs) + 1
            model = model_cdm(seq, threshold="auto")
        else:
            model = model_cdm(seq, threshold=threshold)
        assert model.cdm_threshold == threshold
        n, h, w = stack.shape
        for r in range(h):
            for c in range(w):
                expected = brute_cdm(stack[:, r, c].tolist(), model.cdm_threshold)
                assert model.reference[r, c] == expected

    def test_run_starts_past_the_int16_frame_range(self):
        # 40,000 frames: a 5,001-frame run, then single-frame runs, then the
        # longest run starting at frame 33,000, beyond 32,767
        values = [20] * 5000 + [0, 100] * 14000 + [7, 8] * 3500
        model = model_cdm(seq_1x1(values), threshold=50)
        assert model.reference[0, 0] == brute_cdm(values, 50) == 7

    @pytest.mark.parametrize("n", [180, 181])
    def test_run_keys_at_the_int16_boundary(self, n):
        # the packed run key stays below n * (n + 1), which fits int16 up to
        # n = 180. A pixel with no change makes the largest key, n * (n + 1) - 1,
        # and its median moves if its run loses a frame; two pixels have two
        # equal-length runs, so the earlier one wins
        half = (n - 1) // 2
        middle = [100] * (n - 2 * half)
        columns = [
            [40] * half + [41] * (n - half),
            [10] * half + middle + [200] * half,
            [200] * half + middle + [10] * half,
        ]
        stack = np.array(columns, dtype=np.uint8).T[:, None, :]
        ref = model_cdm(FrameSequence(stack), threshold=50).reference[0]
        assert ref.tolist() == [brute_cdm(v, 50) for v in columns] == [41, 10, 200]

    @pytest.mark.parametrize("n", [256, 257, 65535, 65536, 66015])
    def test_run_frames_at_the_unsigned_index_boundaries(self, n):
        # frame numbers are uint8 up to 256 frames and uint16 up to 65,536;
        # the longest run is the last 15 frames, starting past 65,535 at 66,015
        values = ([0, 100] * 33000 + [7] * 10 + [8] * 5)[-n:]
        model = model_cdm(FrameSequence(_column(values)), threshold=50)
        assert model.reference[0, 0] == brute_cdm(values, 50) == 7

    def test_auto_threshold_on_walker(self):
        spec = WalkerSpec(
            body_height=40, body_width=12, period_frames=12, stride_px=30,
            leg_swing_amplitude=22, start_x=30, noise_rate=0.0, seed=1,
        )
        seq, _ = generate(spec, 200, 64, 40, background_level=40)
        model = model_cdm(seq, threshold="auto")
        # clean two-valued scene: any nonzero difference is a change
        assert model.cdm_threshold is not None and model.cdm_threshold >= 1
        # the static background dominates every pixel's longest run
        assert np.array_equal(model.reference, np.full((64, 200), 40, np.uint8))


# pixel blocks of a few bytes: many blocks, partial last blocks and, at the
# largest size, one block wider than the image
BLOCK_SIZES = [1, 13, 200, 1 << 15]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
def test_oracles_across_pixel_blocks(monkeypatch, block_bytes):
    """The brute-force oracles of the median and the histogram, with the
    walk split into blocks of a few pixels."""
    monkeypatch.setattr(background, "_BLOCK_BYTES", block_bytes)
    TestMedian().test_matches_brute_oracle_on_random_stacks()
    rng = np.random.default_rng(block_bytes)
    # a prime pixel count with one and two frames
    stacks = [rng.integers(0, 256, size=(n, 1, 13), dtype=np.uint8) for n in (1, 2, 9)]
    TestHistogram().test_matches_brute_oracle_on_random_stacks()
    for stack in stacks:
        seq = seq_from_stack(stack)
        columns = [stack[:, 0, c].tolist() for c in range(13)]
        ref = model_histogram(seq).reference[0]
        assert ref.tolist() == [brute_mode(v) for v in columns]
        assert model_median(seq).reference[0].tolist() == [
            brute_lower_median(v) for v in columns
        ]
        if len(stack) >= 2:
            ref = model_cdm(seq, threshold=60).reference[0]
            assert ref.tolist() == [brute_cdm(v, 60) for v in columns]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@settings(max_examples=100, deadline=None)
@given(case=cdm_cases())
def test_cdm_oracle_across_pixel_blocks(block_bytes, case):
    with mock.patch.object(background, "_BLOCK_BYTES", block_bytes):
        TestCdm.test_matches_brute_oracle.hypothesis.inner_test(TestCdm(), case)


@st.composite
def majority_walks(draw):
    """(stack, threshold): walks of 1-13 frames drawn from one to three
    values, the first of them dominant, so that most pixels hold a
    majority and the others fall just short of one."""
    n = draw(st.integers(1, 13))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    values = st.sampled_from((0, 40, 41, 60, 255))
    levels = draw(st.lists(values, min_size=1, max_size=3, unique=True))
    weight = draw(st.integers(1, 3))  # draws of the first level per draw of each other
    elements = st.sampled_from([levels[0]] * weight + levels[1:])
    stack = draw(arrays(np.uint8, (n, h, w), elements=elements))
    return stack, draw(st.sampled_from(("auto", 0, 1, 2, 20, 255)))


def _columns(*columns):
    # one row of pixels, one column of frames each
    return np.array(columns, dtype=np.uint8).T[:, None, :]


# a pixel block of one byte counts one frame and selects one pixel per block
@pytest.mark.parametrize("block_bytes", [1, 13, 1 << 19])
@settings(max_examples=200, deadline=None)
@given(walk=majority_walks())
# the middle frame's value in n // 2 frames, then in n // 2 + 1, for odd and even n
@example(walk=(_columns([10, 10, 10, 200, 200, 90], [10, 200, 10, 10, 200, 10]), 255))
@example(walk=(_columns([10, 10, 10, 200, 200, 90, 90], [10, 200, 10, 10, 200, 10, 90]), 255))
# threshold 0: every run is one frame; threshold 5: longest runs of two
# frames, with and without a majority
@example(walk=(_columns([10, 12, 200, 90], [10, 10, 200, 90], [7, 7, 7, 7]), 0))
@example(walk=(_columns([10, 12, 200, 90], [10, 10, 200, 90], [7, 7, 7, 7]), 5))
# the longest run holds a majority the walk lacks; the walk holds a majority
# its longest run lacks
@example(walk=(_columns([200, 90, 10, 10, 10, 150, 250]), 5))
@example(walk=(_columns([40, 40, 200, 40, 40, 200, 40, 40, 40, 10, 11, 12, 13]), 5))
# modes tied with no majority; at even n the middle frame's value held in
# exactly n // 2 frames, tied with a lower mode and as the only mode
@example(walk=(_columns([12, 12, 40, 40, 7]), "auto"))
@example(walk=(_columns([7, 7, 30, 30, 30, 7], [50, 9, 50, 50, 1, 2]), "auto"))
def test_majority_step_matches_the_brute_oracles(block_bytes, walk):
    """The median, histogram and cdm references, decided by counting
    where the middle frame's value fills more than half of the run and by
    selection elsewhere, equal the brute-force oracles; exactly the
    pixels without such a majority go to selection."""
    stack, threshold = walk
    seq = seq_from_stack(stack)
    counted = background._majority
    selected = []

    def majority(*args):
        candidates, undecided = counted(*args)
        selected.append(undecided.tolist())
        return candidates, undecided

    with mock.patch.object(background, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(background, "_majority", majority):
        median = model_median(seq).reference
        histogram = model_histogram(seq).reference
        cdm = model_cdm(seq, threshold) if len(stack) >= 2 else None
    columns = [stack[:, r, c].tolist() for r, c in np.ndindex(stack.shape[1:])]
    assert median.ravel().tolist() == [brute_lower_median(v) for v in columns]
    assert histogram.ravel().tolist() == [brute_mode(v) for v in columns]
    runs = [columns, columns]  # the median's and the histogram's run is the whole walk
    if cdm is not None:
        t = cdm.cdm_threshold
        assert cdm.reference.ravel().tolist() == [brute_cdm(v, t) for v in columns]
        runs.append([brute_longest_run(v, t) for v in columns])
    # no majority: the middle frame's value fills at most half of the run
    assert selected == [
        [i for i, run in enumerate(of) if 2 * run.count(run[(len(run) - 1) // 2]) <= len(run)]
        for of in runs
    ]


@pytest.mark.parametrize(
    "model", [model_median, model_histogram, partial(model_cdm, threshold="auto")],
    ids=["median", "histogram", "cdm"],
)
def test_modelling_memory_is_bounded(model):
    """On a noisy 352x144x120 walk each technique allocates at most three
    times the walk's bytes."""
    rng = np.random.default_rng(12)
    seq = FrameSequence(rng.integers(30, 201, size=(120, 144, 352), dtype=np.uint8))
    tracemalloc.start()
    try:
        model(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * seq.pixels.nbytes, peak / seq.pixels.nbytes


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generation_memory_is_bounded():
    """Rendering a noisy 352x144x120 walk allocates at most 1.5 times its
    bytes: the walk's one array and a block of frames."""
    (seq, _), peak = _traced_peak(lambda: generate(WalkerSpec(noise_rate=0.01, seed=12), 352, 144, 120))
    assert seq.pixels.shape == (120, 144, 352)
    assert peak <= 1.5 * seq.pixels.nbytes, peak / seq.pixels.nbytes


def test_loading_memory_is_bounded(tmp_path):
    """Loading the noisy 352x144x120 walk from its files allocates at most
    1.5 times its bytes: the walk's one array and a file at a time."""
    seq, _ = generate(WalkerSpec(noise_rate=0.01, seed=12), 352, 144, 120)
    save_sequence(seq, tmp_path)
    loaded, peak = _traced_peak(lambda: load_sequence(tmp_path))
    assert loaded.pixels.tobytes() == seq.pixels.tobytes()
    assert peak <= 1.5 * seq.pixels.nbytes, peak / seq.pixels.nbytes


def test_otsu_separates_bimodal_values():
    values = np.array([10] * 100 + [200] * 100, dtype=np.uint8)
    t = otsu_split(values)
    assert 10 <= t < 200
    assert otsu_split(np.array([42] * 10, dtype=np.uint8)) == 42


@settings(max_examples=200, deadline=None)
@given(arrays(np.uint8, st.integers(1, 60),
              elements=st.one_of(st.integers(0, 255), st.sampled_from((0, 9, 255)))))
@example(np.full(7, 42, dtype=np.uint8))  # single value: no split exists
@example(np.array([0, 255], dtype=np.uint8))
def test_otsu_maximises_between_class_variance(values):
    values = values.tolist()
    t = otsu_split(values)
    variances = [brute_between_class_variance(values, s) for s in range(256)]
    best = max(variances)
    assert abs(variances[t] - best) <= 1e-9 * best
    if len(set(values)) == 1:
        assert t == values[0]


def brute_otsu(values):
    # first threshold of maximal between-class variance
    variances = [brute_between_class_variance(values, s) for s in range(256)]
    return variances.index(max(variances))


class TestOtsuEdges:
    def test_all_zeros(self):
        assert otsu_split(np.zeros(50, np.uint8)) == 0

    def test_no_zeros(self):
        # classes {100} and {200}: a phantom zero would split off {0}
        assert otsu_split(np.array([100, 200], np.uint8)) == 100
        rng = np.random.default_rng(8)
        values = rng.integers(1, 256, size=300).astype(np.uint8)
        assert otsu_split(values) == brute_otsu(values.tolist())

    def test_single_nonzero_value(self):
        for v in (1, 9, 255):
            values = [0] * 40 + [v]
            assert otsu_split(np.array(values, np.uint8)) == brute_otsu(values) == 0

    def test_zero_weight_moves_the_split(self):
        # four zeros split {0, 30} from {60}, five split {0} from {30, 60}
        splits = []
        for zeros in range(1, 9):
            values = [0] * zeros + [30] * 5 + [60] * 5
            splits.append(otsu_split(np.array(values, np.uint8)))
            assert splits[-1] == brute_otsu(values)
        assert splits == [30] * 4 + [0] * 4

    def test_two_dimensional_input_equals_its_ravel(self):
        rng = np.random.default_rng(9)
        stack = rng.integers(0, 4, size=(12, 5, 7)).astype(np.uint8) * 60
        diffs = np.abs(np.diff(stack.astype(np.int16), axis=0)).astype(np.uint8).reshape(11, 35)
        pooled = otsu_histograms(diffs).sum(axis=0)
        assert np.array_equal(pooled, otsu_histograms(diffs.ravel()[None])[0])
        assert otsu_from_histograms(pooled[None])[0] == otsu_split(diffs.ravel())


def test_background_file_round_trip(tmp_path):
    model = model_cdm(seq_1x1([10, 10, 10, 50, 10]), threshold=20)
    path = tmp_path / "bg.pgm"
    save_background(model, path)
    back = load_background(path)
    assert np.array_equal(back.reference, model.reference)
    assert back.technique == "cdm"
    assert back.cdm_threshold == 20


@pytest.mark.parametrize("build", [model_median, model_histogram, partial(model_cdm, threshold=20)],
                         ids=["median", "histogram", "cdm"])
def test_reloaded_model_equals_the_saved_one(tmp_path, build):
    stack = np.random.default_rng(4).integers(0, 4, size=(7, 3, 5)).astype(np.uint8) * 60
    model = build(FrameSequence(stack))
    save_background(model, tmp_path / "bg.pgm")
    back = load_background(tmp_path / "bg.pgm")
    assert back == model and not back != model
    assert back != BackgroundModel(model.reference, model.technique, 7)
    assert back != BackgroundModel(255 - model.reference, model.technique, model.cdm_threshold)


def test_reference_is_a_private_read_only_grid():
    grid = np.array([[0, 255], [128, 64]])
    model = BackgroundModel(grid, "median")
    assert model.reference.dtype == np.uint8 and model.reference.tolist() == grid.tolist()
    assert not model.reference.flags.writeable
    grid[:] = 7  # the caller's grid
    assert model.reference.tolist() == [[0, 255], [128, 64]]
    for bad, error in (([[0, 256]], ValueError), ([[-1, 0]], ValueError),
                       (np.zeros(4, dtype=np.uint8), DimensionMismatch)):
        with pytest.raises(error):
            BackgroundModel(bad, "median")


# 256 is the auto threshold of a walk whose every difference is 255
@pytest.mark.parametrize("text, threshold", [("0", 0), ("007", 7), ("256", 256), ("0" * 5000 + "9", 9)],
                         ids=["0", "007", "256", "5000-zeros-9"])
def test_provenance_threshold_in_range_loads(tmp_path, text, threshold):
    path = tmp_path / "bg.pgm"
    write_pgm(path, np.zeros((2, 3)), comment=f"gaitlock-background technique=cdm threshold={text}")
    assert load_background(path).cdm_threshold == threshold


# comment-less 1-row references whose raster bytes spell a provenance comment
RASTER_COMMENTS = (
    b"#gaitlock-background threshold=zz",
    b"#gaitlock-background technique=cdm threshold=7",
)


def write_one_row_pgm(path, raster: bytes) -> None:
    path.write_bytes(b"P5\n%d 1\n255\n" % len(raster) + raster)


@pytest.mark.parametrize("raster", RASTER_COMMENTS)
def test_raster_bytes_are_not_header_comments(tmp_path, raster):
    path = tmp_path / "bg.pgm"
    write_one_row_pgm(path, raster)
    back = load_background(path)
    assert (back.technique, back.cdm_threshold) == (None, None)
    assert back.reference.tobytes() == raster


@pytest.mark.slow
def test_modelling_time_ordering():
    """On a long walker shot the median, which counts the majority value
    and selects only where none exists, beats the histogram's counting,
    which beats change analysis."""
    spec = WalkerSpec(
        body_height=70, body_width=22, period_frames=24, stride_px=48,
        leg_swing_amplitude=40, start_x=45, noise_rate=0.005, seed=9,
    )
    seq, _ = generate(spec, 352, 144, 120, background_level=40)

    def best_of(fn, reps=3):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(seq)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_hist = best_of(model_histogram)
    t_median = best_of(model_median)
    t_cdm = best_of(lambda s: model_cdm(s, threshold=20))
    assert t_median < t_hist < t_cdm, (t_hist, t_median, t_cdm)
