import numpy as np
import pytest

from gaitlock.errors import DecodeError, DimensionMismatch, EmptyDirectory
from gaitlock.imagery import (
    Frame,
    FrameSequence,
    frame_filename,
    load_sequence,
    read_pnm,
    write_pgm,
)


def gray(value, shape=(4, 4)):
    return np.full(shape, value, dtype=np.uint8)


def test_frame_invariants():
    f = Frame([[0, 255], [128, 64]])
    assert (f.width, f.height) == (2, 2)
    with pytest.raises(ValueError):
        Frame([[0, 256]])
    with pytest.raises(ValueError):
        Frame([[-1, 0]])
    with pytest.raises(DimensionMismatch):
        Frame(np.zeros(4, dtype=np.uint8))


def test_sequence_requires_uniform_size():
    with pytest.raises(DimensionMismatch):
        FrameSequence([Frame(gray(0, (4, 4))), Frame(gray(0, (8, 8)))], fps=25)
    for fps in (0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            FrameSequence([Frame(gray(0))], fps=fps)


def test_pgm_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(7, 13), dtype=np.uint8)
    path = tmp_path / "frame_0001.pgm"
    write_pgm(path, pixels)
    back, _ = read_pnm(path)
    assert np.array_equal(pixels, back)


def test_load_constant_frames(tmp_path):
    for i in range(1, 4):
        write_pgm(tmp_path / frame_filename(i), gray(128))
    seq = load_sequence(tmp_path, fps=25)
    assert len(seq) == 3
    assert seq.fps == 25
    assert all(np.array_equal(f.pixels, gray(128)) for f in seq)


def test_load_preserves_exact_bytes(tmp_path):
    pixels = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    write_pgm(tmp_path / frame_filename(1), pixels)
    seq = load_sequence(tmp_path, fps=25)
    assert np.array_equal(seq[0].pixels, pixels)


def test_load_order_is_numeric_not_lexical(tmp_path):
    # index 2 written before index 10; 10 must still load after 2
    write_pgm(tmp_path / "frame_10.pgm", gray(10))
    write_pgm(tmp_path / "frame_2.pgm", gray(2))
    write_pgm(tmp_path / "frame_0001.pgm", gray(1))
    seq = load_sequence(tmp_path, fps=25)
    assert [f.pixels[0, 0] for f in seq] == [1, 2, 10]


def test_load_mixed_sizes_rejected(tmp_path):
    write_pgm(tmp_path / frame_filename(1), gray(0, (4, 4)))
    write_pgm(tmp_path / frame_filename(2), gray(0, (8, 8)))
    with pytest.raises(DimensionMismatch):
        load_sequence(tmp_path, fps=25)


def test_load_empty_or_missing_directory(tmp_path):
    with pytest.raises(EmptyDirectory):
        load_sequence(tmp_path, fps=25)
    with pytest.raises(EmptyDirectory):
        load_sequence(tmp_path / "nope", fps=25)


def test_malformed_file_rejected(tmp_path):
    (tmp_path / "frame_0001.pgm").write_bytes(b"P5\n4 4\n255\nxx")  # truncated raster
    with pytest.raises(DecodeError):
        load_sequence(tmp_path, fps=25)
    (tmp_path / "frame_0001.pgm").write_bytes(b"P3\n1 1\n255\n0\n")
    with pytest.raises(DecodeError):
        load_sequence(tmp_path, fps=25)


def test_ppm_converts_to_luminance(tmp_path):
    # one red, one white pixel: 0.299*255 -> 76, full white -> 255
    body = bytes([255, 0, 0, 255, 255, 255])
    (tmp_path / "frame_0001.ppm").write_bytes(b"P6\n2 1\n255\n" + body)
    seq = load_sequence(tmp_path, fps=25)
    assert seq[0].pixels.tolist() == [[76, 255]]


def test_header_comments_ignored(tmp_path):
    (tmp_path / "frame_0001.pgm").write_bytes(b"P5\n# a comment\n1 1\n255\n\x42")
    seq = load_sequence(tmp_path, fps=25)
    assert seq[0].pixels[0, 0] == 0x42
