from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gaitlock import segmentation
from gaitlock.background import BackgroundModel, model_cdm
from gaitlock.errors import DimensionMismatch
from gaitlock.features import wavelet_features
from gaitlock.imagery import FrameSequence, WalkBuffers
from gaitlock.segmentation import (
    EMPTY_BOX,
    bounding_boxes,
    clean_mask,
    difference_mask,
    largest_component,
    segment_sequence,
)

from test_background import brute_between_class_variance, brute_cdm, otsu_split


def bg_of(pixels):
    return BackgroundModel(np.asarray(pixels, dtype=np.uint8), "median")


def box_of(mask):
    return bounding_boxes(mask[None])[0].tolist()


def flood_fill_components(mask):
    """Independent 8-connected labelling by explicit flood fill."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=int)
    sizes = []
    next_label = 0
    for r0 in range(h):
        for c0 in range(w):
            if mask[r0, c0] and labels[r0, c0] == 0:
                next_label += 1
                stack = [(r0, c0)]
                labels[r0, c0] = next_label
                size = 0
                while stack:
                    r, c = stack.pop()
                    size += 1
                    for dr in (-1, 0, 1):
                        for dc in (-1, 0, 1):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and labels[rr, cc] == 0:
                                labels[rr, cc] = next_label
                                stack.append((rr, cc))
                sizes.append(size)
    return labels, sizes


def label_components(mask):
    """(labels, sizes) of the 8-connected components of one mask, read off
    the run labeling the block path uses: labels are int32, 0 for
    background and 1..k in scan order of each component's first pixel;
    sizes[i] is the pixel count of component i+1."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    starts, ends, component = segmentation._label_runs(mask[None])
    lengths = ends - starts
    labels = np.zeros((h, w), dtype=np.int32)
    labels.ravel()[segmentation._run_pixels(starts, ends, h, w)] = np.repeat(component + 1, lengths)
    return labels, np.bincount(component, weights=lengths).astype(np.int64).tolist()


def reference_otsu(values):
    """Otsu threshold of 8-bit values from the full 256-bin histogram."""
    arr = np.asarray(values, dtype=np.uint8).ravel()
    hist = np.bincount(arr, minlength=256).astype(np.float64)
    prob = hist / hist.sum()
    omega = np.cumsum(prob)
    mu = np.cumsum(prob * np.arange(256))
    mu_total = mu[-1]
    valid = (omega > 0.0) & (omega < 1.0)
    if not valid.any():
        return int(arr[0])
    sigma_b = np.zeros(256)
    sigma_b[valid] = (mu_total * omega[valid] - mu[valid]) ** 2 / (
        omega[valid] * (1.0 - omega[valid])
    )
    return int(np.argmax(sigma_b))


def reference_segment(frame, reference, threshold="auto"):
    """One frame through the chain pixel by pixel: absolute difference,
    Otsu or fixed threshold (strict), 3x3 majority vote with background
    padding, then the largest 8-connected component, the first in scan
    order of equal sizes."""
    diff = np.abs(frame.astype(int) - reference.astype(int))
    limit = reference_otsu(diff) if threshold == "auto" else int(threshold)
    raw = diff > limit
    h, w = raw.shape
    padded = np.zeros((h + 2, w + 2), dtype=int)
    padded[1:-1, 1:-1] = raw
    votes = sum(padded[dr:dr + h, dc:dc + w] for dr in range(3) for dc in range(3))
    labels, sizes = flood_fill_components(votes >= 5)
    if not sizes:
        return np.zeros((h, w), dtype=bool)
    return labels == sizes.index(max(sizes)) + 1


class TestDifferenceMask:
    def test_identical_frame_gives_empty_mask(self):
        frame = np.full((4, 4), 90, np.uint8)
        mask = difference_mask(frame, bg_of(np.full((4, 4), 90)), threshold=10)
        assert not mask.any()
        assert box_of(mask) == list(EMPTY_BOX)

    def test_threshold_is_strict(self):
        frame = np.array([[100, 80]], dtype=np.uint8)
        bg = bg_of([[30, 30]])
        mask = difference_mask(frame, bg, threshold=50)
        assert mask.tolist() == [[True, False]]  # |70| > 50, |50| == 50 stays out

    def test_symmetric_in_sign(self):
        rng = np.random.default_rng(0)
        base = rng.integers(60, 196, size=(5, 5)).astype(np.int16)
        delta = rng.integers(-50, 51, size=(5, 5))
        up = difference_mask((base + delta).astype(np.uint8), bg_of(base), 20)
        down = difference_mask((base - delta).astype(np.uint8), bg_of(base), 20)
        assert np.array_equal(up, down)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            difference_mask(np.zeros((2, 2), np.uint8), bg_of(np.zeros((3, 3))), 10)
        with pytest.raises(DimensionMismatch):  # a frame is a 2-D grid
            difference_mask(np.zeros((1, 3, 3), np.uint8), bg_of(np.zeros((3, 3))), 10)

    def test_bbox_is_tight(self):
        pixels = np.zeros((8, 8), np.uint8)
        pixels[2:5, 3:7] = 200
        mask = difference_mask(pixels, bg_of(np.zeros((8, 8))), 100)
        assert mask.dtype == bool and mask.shape == (8, 8)
        row = bounding_boxes(mask[None])[0]
        assert row.dtype == np.int64 and row.tolist() == [3, 2, 6, 4]
        x_min, y_min, x_max, y_max = row
        assert (x_max - x_min + 1, y_max - y_min + 1) == (4, 3)


@st.composite
def frame_pairs(draw):
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    # few levels make ties and zero differences common
    elements = st.one_of(st.integers(0, 255), st.sampled_from((0, 128, 255)))
    frame = draw(arrays(np.uint8, (h, w), elements=elements))
    reference = draw(arrays(np.uint8, (h, w), elements=elements))
    return frame, reference


@settings(max_examples=200, deadline=None)
@given(frame_pairs())
@example((np.full((3, 4), 77, np.uint8), np.full((3, 4), 77, np.uint8)))  # all equal
@example((np.full((3, 4), 255, np.uint8), np.zeros((3, 4), np.uint8)))  # every difference 255
@example((np.full((2, 2), 255, np.uint8), np.full((2, 2), 255, np.uint8)))
def test_auto_difference_mask_matches_brute_otsu(pair):
    frame, reference = pair
    mask = difference_mask(frame, bg_of(reference))
    diffs = [abs(int(a) - int(b)) for a, b in zip(frame.ravel(), reference.ravel())]
    if len(set(diffs)) == 1:
        # no split exists: the foreground class stays empty
        assert not mask.any()
        return
    variances = [brute_between_class_variance(diffs, t) for t in range(256)]
    best = max(variances)
    # the mask must be the split of a threshold of maximal variance; two
    # different splits can tie, and rounding may then favour either
    splits = {tuple(d > t for d in diffs) for t in range(256) if variances[t] >= best * (1 - 1e-9)}
    assert tuple(mask.ravel().tolist()) in splits


class TestCleanMask:
    def test_isolated_pixels_removed(self):
        grid = np.zeros((40, 40), dtype=bool)
        grid[5:15, 8:28] = True  # 10x20 solid walker
        for r, c in ((30, 30), (2, 35), (35, 2)):
            grid[r, c] = True
        cleaned = clean_mask(grid)
        assert cleaned.dtype == bool and cleaned.shape == (40, 40)
        assert not cleaned[30, 30] and not cleaned[2, 35] and not cleaned[35, 2]
        assert cleaned[6:14, 9:27].all()  # interior intact
        assert box_of(cleaned) == [8, 5, 27, 14]

    def test_empty_stays_empty(self):
        cleaned = clean_mask(np.zeros((6, 6), dtype=bool))
        assert not cleaned.any()
        assert box_of(cleaned) == list(EMPTY_BOX)

    def test_solid_rectangle_keeps_interior_and_bbox(self):
        grid = np.zeros((20, 20), dtype=bool)
        grid[4:12, 3:17] = True
        cleaned = clean_mask(grid)
        assert cleaned[5:11, 4:16].all()
        assert box_of(cleaned) == [3, 4, 16, 11]

    def test_at_most_one_component_afterwards(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            grid = rng.random((24, 24)) < 0.35
            cleaned = clean_mask(grid)
            _, sizes = flood_fill_components(cleaned)
            assert len(sizes) <= 1

    def test_keeps_the_larger_component(self):
        grid = np.zeros((30, 30), dtype=bool)
        grid[2:8, 2:8] = True    # 36 px
        grid[15:25, 15:25] = True  # 100 px
        cleaned = clean_mask(grid)
        assert cleaned[18, 18]
        assert not cleaned[4, 4]


@pytest.mark.parametrize(
    "call",
    [clean_mask, largest_component, lambda mask: wavelet_features([mask])],
    ids=["clean_mask", "largest_component", "wavelet_features"],
)
@pytest.mark.parametrize(
    "mask",
    [np.ones(4, bool), np.ones((2, 3, 3), bool), np.ones((0, 4), bool)],
    ids=["1-D", "3-D", "empty"],
)
def test_per_frame_calls_reject_masks_that_are_not_2d_grids(call, mask):
    with pytest.raises(DimensionMismatch, match="non-empty 2-D grid"):
        call(mask)


class TestConnectedComponents:
    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(12)
        for density in (0.2, 0.5, 0.8):
            for _ in range(15):
                grid = rng.random((17, 23)) < density
                labels, sizes = label_components(grid)
                oracle_labels, oracle_sizes = flood_fill_components(grid)
                assert sorted(sizes) == sorted(oracle_sizes)
                # same partition: matching label maps both ways
                assert (labels > 0).sum() == sum(sizes)
                for lab in range(1, len(sizes) + 1):
                    cells = labels == lab
                    oracle_ids = np.unique(oracle_labels[cells])
                    assert oracle_ids.size == 1

    def test_diagonal_pixels_connect(self):
        grid = np.array([[1, 0], [0, 1]], dtype=bool)
        _, sizes = label_components(grid)
        assert sizes == [2]

    def test_largest_component_tie_is_deterministic(self):
        grid = np.zeros((5, 9), dtype=bool)
        grid[1, 1:3] = True
        grid[3, 6:8] = True
        kept = largest_component(grid)
        assert kept[1, 1] and kept[1, 2] and not kept[3, 6]


@st.composite
def diagonal_chains(draw):
    """Masks whose pixels join only through corners: one pixel per row,
    each a column step of +-1 from the one above, with gaps between chains."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(2, 24))
    mask = np.zeros((h, w), dtype=bool)
    col = draw(st.integers(0, w - 1))
    for r in range(h):
        if draw(st.integers(0, 5)) == 0:  # break the chain on this row
            col = draw(st.integers(0, w - 1))
            continue
        mask[r, col] = True
        col = min(max(col + draw(st.sampled_from((-1, 1))), 0), w - 1)
    return mask


MASKS = st.one_of(
    arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)),
    diagonal_chains(),
)


@settings(max_examples=300, deadline=None)
@given(MASKS)
@example(np.zeros((1, 24), dtype=bool))
@example(np.ones((1, 24), dtype=bool))
@example(np.ones((24, 1), dtype=bool))
@example(np.zeros((24, 24), dtype=bool))
@example(np.ones((24, 24), dtype=bool))
@example(np.eye(24, dtype=bool))
@example(np.eye(24, dtype=bool)[::-1])
@example(np.indices((24, 24)).sum(axis=0) % 2 == 0)  # checkerboard: one component
@example(np.indices((9, 24))[1] % 2 == 0)  # vertical stripes: twelve components
def test_labels_match_flood_fill_oracle_property(mask):
    labels, sizes = label_components(mask)
    oracle_labels, oracle_sizes = flood_fill_components(mask)
    assert labels.dtype == np.int32 and labels.shape == mask.shape
    # both number components in scan order of their first pixel
    assert np.array_equal(labels, oracle_labels)
    assert sizes == oracle_sizes
    kept = largest_component(mask)
    if oracle_sizes:
        expected = oracle_labels == oracle_sizes.index(max(oracle_sizes)) + 1
    else:
        expected = np.zeros(mask.shape, dtype=bool)
    assert np.array_equal(kept, expected)


def test_bounding_box_tightness_property():
    rng = np.random.default_rng(21)
    grids = rng.random((30, 12, 15)) < 0.2
    boxes = bounding_boxes(grids)
    assert boxes.dtype == np.int64 and boxes.shape == (30, 4)
    for grid, (x_min, y_min, x_max, y_max) in zip(grids, boxes.tolist()):
        if (x_min, y_min, x_max, y_max) == EMPTY_BOX:
            assert not grid.any()
            continue
        assert grid[y_min, x_min:x_max + 1].any()
        assert grid[y_max, x_min:x_max + 1].any()
        assert grid[y_min:y_max + 1, x_min].any()
        assert grid[y_min:y_max + 1, x_max].any()
        assert not grid[:y_min].any() and not grid[y_max + 1:].any()
        assert not grid[:, :x_min].any() and not grid[:, x_max + 1:].any()


LEVELS = st.one_of(st.sampled_from((0, 128, 255)), st.integers(0, 255))


@st.composite
def walks(draw, lengths):
    """(frames, reference, threshold): a short walk of small frames whose
    few levels make ties, zero differences and border-touching blobs common."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    frames = draw(arrays(np.uint8, (draw(lengths), h, w), elements=LEVELS))
    reference = draw(arrays(np.uint8, (h, w), elements=LEVELS))
    return frames, reference, draw(st.sampled_from(("auto", 0, 255)))


def _two_plus_shapes():
    # two 3x3 squares vote down to two 5-pixel plus shapes: equal sizes
    frame = np.zeros((1, 5, 9), dtype=np.uint8)
    frame[0, 1:4, 0:3] = frame[0, 1:4, 5:8] = 255
    return frame, np.zeros((5, 9), dtype=np.uint8), "auto"


def _blobs_across_frames():
    # a blob on frame 0's last rows and one on frame 1's first rows share
    # columns; each frame also holds a blob that decides, if the two merged
    # across the frame boundary, which frame loses its true largest
    frames = np.zeros((2, 8, 12), dtype=np.uint8)
    frames[0, 5:, 0:4] = 255  # on the last rows, smaller than the next
    frames[0, :4, 6:] = 255  # frame 0's largest
    frames[1, :4, 0:4] = 255  # on the first rows, frame 1's largest
    frames[1, 6:, 7:10] = 255
    return frames, np.zeros((8, 12), dtype=np.uint8), "auto"


def _static_walk():
    frames = np.full((3, 4, 5), 90, dtype=np.uint8)
    frames[1] = 0  # one frame all different, but all by the same amount
    return frames, np.full((4, 5), 90, dtype=np.uint8), "auto"


def _edge_touching():
    # foreground on the first and last row and column: a whole frame, and
    # blobs in the top-right and bottom-left corners
    frames = np.zeros((3, 6, 7), dtype=np.uint8)
    frames[0] = 255
    frames[1, :3, 4:] = 255
    frames[2, 3:, :3] = 255
    return frames, np.zeros((6, 7), dtype=np.uint8), "auto"


def _empty_middle_block():
    # frames 2 and 3 equal the reference: with blocks of one or two
    # frames, empty blocks lie between non-empty ones
    frames = np.zeros((6, 6, 8), dtype=np.uint8)
    frames[0, 1:4, 1:4] = frames[1, 2:5, 3:6] = 255
    frames[4, 2:6, 4:8] = frames[5, 0:3, 0:3] = 255
    return frames, np.zeros((6, 8), dtype=np.uint8), "auto"


def _last_frame_only():
    # only the last frame of the walk, and so of its last block, differs
    frames = np.full((4, 5, 6), 90, dtype=np.uint8)
    frames[3, 1:4, 2:5] = 200
    return frames, np.full((5, 6), 90, dtype=np.uint8), 50


def _corner_pixel():
    # a plus votes down to its centre alone: one pixel at a corner of the
    # block's voted box, beside a larger blob on frame 0 and alone on frame 1;
    # a foreground pixel in the image corner itself never survives the vote
    frames = np.zeros((2, 7, 9), dtype=np.uint8)
    frames[:, 0:3, 1] = frames[:, 1, 0:3] = 255
    frames[0, 3:7, 5:9] = 255
    frames[1, 6, 8] = 255
    return frames, np.zeros((7, 9), dtype=np.uint8), 100


CROP_WALKS = [_edge_touching(), _empty_middle_block(), _last_frame_only(), _corner_pixel()]
CROP_IDS = ["edges", "empty-block", "last-frame", "corner-pixel"]


class TestSegmentSequence:
    """The block function equals the per-frame chain whatever the blocks."""

    def check(self, walk, frames_per_block):
        frames, reference, threshold = walk
        n, h, w = frames.shape
        block_bytes = h * w * (frames_per_block or n)
        with mock.patch.object(segmentation, "_BLOCK_BYTES", block_bytes):
            seq = FrameSequence(list(frames))
            got = segment_sequence(seq, bg_of(reference), threshold)
        want = np.array([reference_segment(f, reference, threshold) for f in frames])
        assert got.dtype == bool and got.shape == (n, h, w)
        assert got.tobytes() == want.tobytes()
        # the per-frame API is the one-frame case of the same code
        for frame, expected in zip(frames, want):
            raw = difference_mask(frame, bg_of(reference), threshold)
            assert clean_mask(raw).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("frames_per_block", [1, 2])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_blocks_of_k_frames(self, frames_per_block, data):
        k = frames_per_block
        self.check(data.draw(walks(st.sampled_from((1, k, k + 1)))), k)

    @settings(max_examples=150, deadline=None)
    @given(walks(st.integers(1, 6)))
    def test_one_block_for_the_whole_walk(self, walk):
        self.check(walk, None)

    @pytest.mark.parametrize("frames_per_block", [1, 2, None])
    @pytest.mark.parametrize("walk", [_two_plus_shapes(), _blobs_across_frames(), _static_walk()],
                             ids=["tie", "across-frames", "static"])
    def test_hand_cases(self, walk, frames_per_block):
        self.check(walk, frames_per_block)

    @pytest.mark.parametrize("frames_per_block", [1, 2, None])
    @pytest.mark.parametrize("walk", CROP_WALKS, ids=CROP_IDS)
    def test_blocks_cropped_to_the_voted_box(self, walk, frames_per_block):
        """Labeling only the voted box of each block equals the per-frame
        chain, on the box's edges and around empty blocks, also when
        painted into stale buffers."""
        self.check(walk, frames_per_block)
        stale = TestSegmentSequence.test_masks_in_stale_buffers_equal_a_fresh_call
        stale.hypothesis.inner_test(self, frames_per_block=frames_per_block, walk=walk)

    def test_corner_pixel_is_kept_alone(self):
        frames, reference, threshold = _corner_pixel()
        masks = segment_sequence(FrameSequence(frames), bg_of(reference), threshold)
        assert np.flatnonzero(masks[1]).tolist() == [1 * 9 + 1]
        assert masks[0, 4:6, 6:8].all() and not masks[0, 1, 1]

    @pytest.mark.parametrize("frames_per_block", [1, None])
    @settings(max_examples=100, deadline=None)
    @given(walk=walks(st.integers(1, 4)))
    def test_masks_in_stale_buffers_equal_a_fresh_call(self, frames_per_block, walk):
        """Masks painted into buffers that hold a larger earlier walk's
        all-True masks equal the masks of a call without buffers."""
        frames, reference, threshold = walk
        n, h, w = frames.shape
        seq, bg = FrameSequence(frames), bg_of(reference)
        buffers = WalkBuffers()
        stale = buffers.array("masks", (n + 1, h + 1, w), bool)
        stale.fill(True)
        block_bytes = h * w * (frames_per_block or n)
        with mock.patch.object(segmentation, "_BLOCK_BYTES", block_bytes):
            got = segment_sequence(seq, bg, threshold, buffers=buffers)
            fresh = segment_sequence(seq, bg, threshold)
        assert np.shares_memory(got, stale)
        assert got.shape == fresh.shape and got.tobytes() == fresh.tobytes()

    def test_tie_keeps_the_first_plus(self):
        frames, reference, threshold = _two_plus_shapes()
        seq = FrameSequence([frames[0]])
        kept = segment_sequence(seq, bg_of(reference), threshold)[0]
        assert kept[2, 1] and not kept[2, 6]

    def test_dimension_mismatch(self):
        seq = FrameSequence([np.zeros((2, 2), np.uint8)])
        with pytest.raises(DimensionMismatch):
            segment_sequence(seq, bg_of(np.zeros((3, 3))))


def _cdm_oracle(frames, reference, limit):
    # brute_cdm per pixel; auto fires on Otsu's upper class of the pooled differences
    if limit == "auto":
        limit = otsu_split(np.abs(np.diff(frames.astype(np.int16), axis=0))) + 1
    return np.array([[brute_cdm(frames[:, r, c].tolist(), limit) for c in range(frames.shape[2])]
                     for r in range(frames.shape[1])])


def _difference_oracle(frames, reference, limit):
    diff = np.abs(frames[0].astype(int) - reference.astype(int))
    return diff > (reference_otsu(diff) if limit == "auto" else limit)


def _segment_oracle(frames, reference, limit):
    return np.array([reference_segment(f, reference, limit) for f in frames])


# each threshold-taking call and its oracle, as functions of (frames, reference, threshold)
THRESHOLD_CALLS = {
    "model_cdm": (lambda f, ref, t: model_cdm(FrameSequence(f), t).reference, _cdm_oracle),
    "segment_sequence": (lambda f, ref, t: segment_sequence(FrameSequence(f), bg_of(ref), t),
                         _segment_oracle),
    "difference_mask": (lambda f, ref, t: difference_mask(f[0], bg_of(ref), t),
                        _difference_oracle),
}


@pytest.mark.parametrize("call", THRESHOLD_CALLS)
@pytest.mark.parametrize(
    "threshold, limit",
    [(300, None), (-1, None), (20.7, None), (True, None), ("abc", None),
     ("auto", "auto"), (0, 0), (255, 255), ("20", 20), (np.uint8(20), 20)],
    ids=["300", "-1", "20.7", "True", "abc", "auto", "0", "255", "str-20", "uint8-20"],
)
def test_threshold_rule(call, threshold, limit):
    """The three threshold-taking calls read their threshold by one rule:
    auto or an integer in [0, 255] spelled in ASCII digits; a threshold
    outside it (limit None) raises ValueError naming it."""
    rng = np.random.default_rng(6)
    frames = rng.integers(0, 256, size=(6, 8, 8), dtype=np.uint8)
    reference = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    run, oracle = THRESHOLD_CALLS[call]
    if limit is None:
        with pytest.raises(ValueError, match="threshold"):
            run(frames, reference, threshold)
    else:
        got = run(frames, reference, threshold)
        assert got.tobytes() == oracle(frames, reference, limit).astype(got.dtype).tobytes()
