import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitlock.background import BackgroundModel
from gaitlock.errors import DecodeError, DimensionMismatch, EmptyDirectory, GaitlockError
from gaitlock.imagery import (
    FRAME_NAME_RE,
    FrameSequence,
    WalkBuffers,
    frame_filename,
    load_sequence,
    read_pnm,
    write_pgm,
)


def gray(value, shape=(4, 4)):
    return np.full(shape, value, dtype=np.uint8)


def test_sequence_requires_uniform_size():
    with pytest.raises(DimensionMismatch):
        FrameSequence([gray(0, (4, 4)), gray(0, (8, 8))])


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(7, 13), dtype=np.uint8)
    path = tmp_path / "frame_0001.pgm"
    write_pgm(path, pixels)
    back, _ = read_pnm(path)
    assert np.array_equal(pixels, back)


def test_pgm_comment_round_trip(tmp_path):
    path = tmp_path / "bg.pgm"
    write_pgm(path, gray(7, (2, 3)), comment="made by gaitlock: 2 1")
    back, comments = read_pnm(path)
    assert comments == ["made by gaitlock: 2 1"]
    assert back.tobytes() == gray(7, (2, 3)).tobytes()


@pytest.mark.parametrize("comment", ["made by\n2 1", "made by\r2 1", "caf\u00e9"],
                         ids=["line-feed", "carriage-return", "non-ascii"])
def test_pgm_comment_that_cannot_read_back_is_refused(tmp_path, comment):
    """A line break would end the comment and put the rest in the header
    ("2 1" read as height and maxval); a non-ASCII comment cannot be
    written. Both are refused before the file or its directory exists."""
    path = tmp_path / "out" / "bg.pgm"
    with pytest.raises(ValueError, match="one line of ASCII text"):
        write_pgm(path, gray(7), comment=comment)
    assert not path.parent.exists()


def test_load_constant_frames(tmp_path):
    for i in range(1, 4):
        write_pgm(tmp_path / frame_filename(i), gray(128))
    seq = load_sequence(tmp_path)
    assert len(seq) == 3
    assert all(np.array_equal(f, gray(128)) for f in seq.pixels)


def test_load_preserves_exact_bytes(tmp_path):
    pixels = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    write_pgm(tmp_path / frame_filename(1), pixels)
    seq = load_sequence(tmp_path)
    assert np.array_equal(seq.pixels[0], pixels)


def test_load_order_is_numeric_not_lexical(tmp_path):
    # index 2 written before index 10; 10 must still load after 2
    write_pgm(tmp_path / "frame_10.pgm", gray(10))
    write_pgm(tmp_path / "frame_2.pgm", gray(2))
    write_pgm(tmp_path / "frame_0001.pgm", gray(1))
    seq = load_sequence(tmp_path)
    assert [f[0, 0] for f in seq.pixels] == [1, 2, 10]


def test_frame_indices_are_ascii_digits_only(tmp_path):
    # U+0662 and U+0661, the ARABIC-INDIC digits two and one, match a
    # Unicode \d; a name spelled with them is no frame name and is ignored
    write_pgm(tmp_path / "frame_\u0662.pgm", gray(2))
    with pytest.raises(EmptyDirectory):
        load_sequence(tmp_path)
    write_pgm(tmp_path / "frame_0001.pgm", gray(1))
    write_pgm(tmp_path / "frame_\u0661.pgm", gray(3))  # no duplicate of index 1
    assert [f[0, 0] for f in load_sequence(tmp_path).pixels] == [1]


def test_load_mixed_sizes_rejected(tmp_path):
    write_pgm(tmp_path / frame_filename(1), gray(0, (4, 4)))
    write_pgm(tmp_path / frame_filename(2), gray(0, (8, 8)))
    message = r"frame_0002\.pgm is 8x8, but .*frame_0001\.pgm is 4x4"
    with pytest.raises(DimensionMismatch, match=message):
        load_sequence(tmp_path)


def test_load_empty_or_missing_directory(tmp_path):
    with pytest.raises(EmptyDirectory):
        load_sequence(tmp_path)
    with pytest.raises(EmptyDirectory):
        load_sequence(tmp_path / "nope")


def test_malformed_file_rejected(tmp_path):
    (tmp_path / "frame_0001.pgm").write_bytes(b"P5\n4 4\n255\nxx")  # truncated raster
    with pytest.raises(DecodeError):
        load_sequence(tmp_path)
    (tmp_path / "frame_0001.pgm").write_bytes(b"P3\n1 1\n255\n0\n")
    with pytest.raises(DecodeError):
        load_sequence(tmp_path)


def test_ppm_converts_to_luminance(tmp_path):
    # one red, one white pixel: 0.299*255 -> 76, full white -> 255
    body = bytes([255, 0, 0, 255, 255, 255])
    (tmp_path / "frame_0001.ppm").write_bytes(b"P6\n2 1\n255\n" + body)
    seq = load_sequence(tmp_path)
    assert seq.pixels[0].tolist() == [[76, 255]]


def test_header_comments_ignored(tmp_path):
    (tmp_path / "frame_0001.pgm").write_bytes(b"P5\n# a comment\n1 1\n255\n\x42")
    seq = load_sequence(tmp_path)
    assert seq.pixels[0, 0, 0] == 0x42


@pytest.mark.parametrize("size", [b"100000 100000", b"2147483647 1"])  # the largest number
def test_header_size_beyond_the_raster_is_a_decode_error(tmp_path, size):
    # the header's counts must not size anything before the raster is checked
    (tmp_path / "frame_0001.pgm").write_bytes(b"P5\n" + size + b"\n255\n" + bytes(16))
    with pytest.raises(DecodeError, match=r"frame_0001\.pgm: truncated raster"):
        load_sequence(tmp_path)


def test_sequence_constructors_agree():
    stack = np.random.default_rng(5).integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    for frames in (list(stack), [p.tolist() for p in stack], stack, stack.astype(np.int64)):
        seq = FrameSequence(frames)
        assert seq.pixels.dtype == np.uint8 and seq.pixels.shape == (5, 3, 4)
        assert seq.pixels.tobytes() == stack.tobytes()
        assert (len(seq), seq.width, seq.height) == (5, 4, 3)


def test_sequence_pixels_are_read_only_and_private():
    stack = np.zeros((3, 2, 2), dtype=np.uint8)
    grids = list(stack)
    by_array, by_grids = FrameSequence(stack), FrameSequence(grids)
    for seq in (by_array, by_grids):
        assert not seq.pixels.flags.writeable
        with pytest.raises(ValueError):
            seq.pixels[0, 0, 0] = 1
    stack[:] = 7  # the caller's array, and every grid viewing it
    assert not by_array.pixels.any() and not by_grids.pixels.any()


@pytest.mark.parametrize("grid", [
    [[0, 256]],
    [[-1, 0]],
    np.zeros((2, 2)),
    np.zeros((2, 2), dtype=bool),
    np.zeros(4, dtype=np.uint8),
    np.zeros((2, 2, 2), dtype=np.uint8),
    np.zeros((0, 3), dtype=np.uint8),
])
def test_sequence_rejects_grids_as_frame_does(grid):
    # a background reference is checked as a frame is
    with pytest.raises((ValueError, DimensionMismatch)) as from_frame:
        BackgroundModel(grid, "median")
    for frames in ([grid], np.asarray(grid)[None]):  # a list of grids, an (n, h, w) array
        with pytest.raises(from_frame.type):
            FrameSequence(frames)


def test_sequence_of_grids_names_the_index():
    with pytest.raises(DimensionMismatch, match="frame 1 is 8x8, expected 4x4"):
        FrameSequence([gray(0, (4, 4)), gray(0, (8, 8))])
    with pytest.raises(EmptyDirectory):
        FrameSequence(np.zeros((0, 2, 2), dtype=np.uint8))


def _reference_token(data: bytes, pos: int, comments: list) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            start = pos
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
            comments.append(data[start + 1:pos].decode("ascii", "replace").strip())
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DecodeError("unexpected end of header")
    return data[start:pos], pos


def reference_read_pnm(data: bytes) -> tuple[np.ndarray, list[str]]:
    """A header parser that reads one token at a time, byte by byte: the
    oracle for the grammar of :func:`read_pnm`. Returns the grid and the
    comments skipped between header tokens."""
    comments = []
    magic, pos = _reference_token(data, 0, comments)
    if magic not in (b"P5", b"P6"):
        raise DecodeError(f"unsupported magic {magic!r}")
    width, pos = _reference_token(data, pos, comments)
    height, pos = _reference_token(data, pos, comments)
    maxval, pos = _reference_token(data, pos, comments)
    numbers = (width, height, maxval)
    if not all(re.fullmatch(rb"[0-9]+", token) for token in numbers):
        raise DecodeError("header numbers must be ASCII decimal digits")
    # leading zeros do not count, and no number is above the largest C int
    values = [token.lstrip(b"0") or b"0" for token in numbers]
    if any(len(value) > 10 or int(value) >= 2**31 for value in values):
        raise DecodeError("header number above 2**31 - 1")
    w, h, mv = map(int, values)
    if w <= 0 or h <= 0 or mv != 255:
        raise DecodeError("unsupported dimensions or maxval")
    pos += 1  # single whitespace byte separates header from raster
    channels = 1 if magic == b"P5" else 3
    raster = data[pos:pos + w * h * channels]
    if len(raster) < w * h * channels:
        raise DecodeError("truncated raster")
    pixels = np.frombuffer(raster, dtype=np.uint8)
    if channels == 3:
        rgb = pixels.reshape(h, w, 3).astype(np.float64)
        return np.rint(rgb @ np.array([0.299, 0.587, 0.114])).astype(np.uint8), comments
    return pixels.reshape(h, w), comments


_WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
_COMMENT = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
_SEPARATOR = st.lists(st.one_of(_WHITESPACE, _COMMENT), max_size=4).map(b"".join)


# between tokens: mostly a whitespace-led gap, sometimes any separator at all
_GAP = st.one_of(*[st.tuples(_WHITESPACE, _SEPARATOR).map(b"".join)] * 5, _SEPARATOR)


def _number(value: int):
    forms = [b"%d"] * 6 + [b"+%d", b"0%d", b"%d#x", b"1_%d", b"-%d"]
    return st.sampled_from(forms).map(lambda form: form % value)


@st.composite
def pnm_files(draw) -> bytes:
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([255] * 5 + [254, 65535]))
    tokens = [magic, draw(_number(w)), draw(_number(h)), draw(_number(maxval))]
    header = draw(_SEPARATOR) + b"".join(token + draw(_GAP) for token in tokens[:-1]) + tokens[-1]
    need = w * h * (1 if magic == b"P5" else 3)
    size = max(0, need + draw(st.sampled_from([0, 0, 0, 1, 2, -1, -2])))  # exact, long, short
    raster = draw(st.binary(min_size=size, max_size=size))
    return header + draw(_WHITESPACE) + raster


@settings(max_examples=300, deadline=None)
@given(data=pnm_files())
@example(data=b"# leading\nP5 1 1 255\n\x07")
@example(data=b"P5\n2 1\n255\n\x01\x02")
@example(data=b"P5\n1_0 1\n255\n" + bytes(10))  # int() reads 1_0 as 10
@example(data=b"P5\n+2 1\n255\n\x01\x02")
@example(data=b"P5\n" + b"0" * 5000 + b"1 1\n" + b"0" * 5000 + b"255\n\x07")  # int() refuses
@example(data=b"P5\n" + b"9" * 5000 + b" 1\n255\n\x07")  # over 4,300 digits
def test_header_grammar_matches_the_token_reader(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "grammar.pnm"
    path.write_bytes(data)
    try:
        expected, header_comments = reference_read_pnm(data)
    except DecodeError:
        with pytest.raises(DecodeError):
            read_pnm(path)
        return
    pixels, comments = read_pnm(path)
    assert pixels.shape == expected.shape and pixels.tobytes() == expected.tobytes()
    assert comments == header_comments


def reference_load_sequence(directory) -> FrameSequence:
    """The per-file loop ``load_sequence`` ran before it read rasters in
    place, kept as the oracle: every frame through ``read_pnm``."""
    directory = Path(directory)
    if not directory.is_dir():
        raise EmptyDirectory(f"no such directory: {directory}")
    indexed: dict[int, str] = {}
    with os.scandir(directory) as entries:
        for entry in entries:
            m = FRAME_NAME_RE.match(entry.name)
            if not m:
                continue
            idx = int(m.group(1))
            if idx in indexed:
                raise DecodeError(f"duplicate frame index {idx} in {directory}")
            indexed[idx] = entry.path
    if not indexed:
        raise EmptyDirectory(f"no frame files in {directory}")
    paths = [indexed[idx] for idx in sorted(indexed)]
    first, _ = read_pnm(paths[0])
    walk = np.empty((len(paths), *first.shape), dtype=np.uint8)
    walk[0] = first
    for i, path in enumerate(paths[1:], start=1):
        pixels, _ = read_pnm(path)
        if pixels.shape != first.shape:
            (h, w), (h0, w0) = pixels.shape, first.shape
            raise DimensionMismatch(f"{path} is {w}x{h}, but {paths[0]} is {w0}x{h0}")
        walk[i] = pixels
    return FrameSequence(walk)


# what a later frame of a walk may differ in from the first
_CHANGES = ("none", "none", "comment", "whitespace", "trailing", "truncated", "dimensions", "P6",
            "directory")


def _pnm(magic: bytes, w: int, h: int, seps: list, comment: bytes, raster: bytes) -> bytes:
    return magic + seps[0] + comment + b"%d%s%d%s255%s" % (w, seps[1], h, seps[2], seps[3]) + raster


@st.composite
def walk_files(draw) -> list:
    """(file name, bytes) per frame of a walk, bytes None for a directory
    of that name; each later frame has one change from the first."""
    w, h, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    seps = draw(st.lists(_WHITESPACE, min_size=4, max_size=4))
    first_magic = draw(st.sampled_from([b"P5"] * 3 + [b"P6"]))
    first_comment = draw(st.sampled_from([b"", b"", b"# c\n"]))
    files = []
    for i in range(1, n + 1):
        change = draw(st.sampled_from(_CHANGES)) if i > 1 else "none"
        magic, fw, fh, fseps, comment = first_magic, w, h, seps, first_comment
        if change == "comment":
            comment = b"# edited\n" + comment
        elif change == "whitespace":  # the same header length
            fseps = draw(st.lists(_WHITESPACE, min_size=4, max_size=4))
        elif change == "dimensions":
            fw, fh = draw(st.sampled_from([(w + 1, h), (w, h + 1)]))
        elif change == "P6":
            magic = b"P6"
        need = fw * fh * (3 if magic == b"P6" else 1)
        raster = draw(st.binary(min_size=need, max_size=need))
        if change == "trailing":
            raster += draw(st.binary(min_size=1, max_size=3))
        elif change == "truncated":
            raster = raster[:-draw(st.integers(1, need))]
        data = None if change == "directory" else _pnm(magic, fw, fh, fseps, comment, raster)
        files.append((frame_filename(i), data))
    return files


def _stale_buffers() -> WalkBuffers:
    # buffers that a larger earlier walk of bright frames was read into
    buffers = WalkBuffers()
    buffers.array("walk", (5, 4, 6), np.uint8).fill(255)
    return buffers


@settings(max_examples=200, deadline=None)
@given(files=walk_files())
@example(files=[(frame_filename(i), b"P5\n# first\n2 1\n255\n" + bytes([i, 9])) for i in (1, 2, 3)])
@example(files=[(frame_filename(1), b"P5\n2 1\n255\n\x01\x02")])
def test_load_matches_the_per_file_loop(tmp_path_factory, files):
    """Bit for bit the walk of the per-file loop, or its error class and
    message, with and without reused buffers."""
    directory = tmp_path_factory.mktemp("walk")
    for name, data in files:
        if data is None:
            (directory / name).mkdir()
        else:
            (directory / name).write_bytes(data)
    try:
        expected = reference_load_sequence(directory)
    except GaitlockError as exc:
        for buffers in (None, _stale_buffers()):
            with pytest.raises(GaitlockError) as raised:
                load_sequence(directory, buffers=buffers)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    for buffers in (None, _stale_buffers()):
        seq = load_sequence(directory, buffers=buffers)
        assert seq.pixels.shape == expected.pixels.shape
        assert seq.pixels.tobytes() == expected.pixels.tobytes()
        assert not seq.pixels.flags.writeable


def test_buffers_grow_only_for_a_larger_walk(tmp_path):
    """A walk no larger than an earlier one is read into the same memory,
    which the next walk read into it overwrites."""
    buffers = WalkBuffers()
    for n, value in ((3, 7), (2, 9), (4, 5)):
        for i in range(1, n + 1):
            write_pgm(tmp_path / f"w{n}" / frame_filename(i), gray(value))
    big = load_sequence(tmp_path / "w3", buffers=buffers)
    small = load_sequence(tmp_path / "w2", buffers=buffers)
    assert np.shares_memory(big.pixels, small.pixels)
    assert (small.pixels == 9).all() and big.pixels[:2].tolist() == small.pixels.tolist()
    larger = load_sequence(tmp_path / "w4", buffers=buffers)
    assert not np.shares_memory(larger.pixels, small.pixels) and (larger.pixels == 5).all()
    owned = load_sequence(tmp_path / "w2")
    assert not np.shares_memory(owned.pixels, larger.pixels)
