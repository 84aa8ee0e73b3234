"""Frame and sequence data model plus PGM/PPM file ingestion.

Frames are single-channel 8-bit images. Binary PGM (P5, maxval 255) is the
canonical interchange format; binary PPM (P6) is accepted at ingestion and
converted to luminance. Emitted images are always P5 PGM.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .errors import DecodeError, DimensionMismatch, EmptyDirectory

FRAME_NAME_RE = re.compile(r"^frame_(\d+)\.(pgm|ppm)$")

# ITU-R BT.601 luminance weights for color ingestion
_LUMA = np.array([0.299, 0.587, 0.114])


class Frame:
    """One grayscale image; pixels are an (height, width) uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionMismatch(f"frame must be a non-empty 2-D grid, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("frame intensities must be integers")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("frame intensities must lie in [0, 255]")
        # frames are immutable once constructed; freeze a private copy
        arr = arr.astype(np.uint8, copy=True)
        arr.flags.writeable = False
        self.pixels = arr

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Frame) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height})"


class FrameSequence:
    """Ordered frames sharing one resolution, plus the capture rate."""

    def __init__(self, frames, fps: float):
        frames = list(frames)
        if not frames:
            raise EmptyDirectory("a sequence needs at least one frame")
        w, h = frames[0].width, frames[0].height
        for i, f in enumerate(frames):
            if f.width != w or f.height != h:
                raise DimensionMismatch(
                    f"frame {i} is {f.width}x{f.height}, expected {w}x{h}"
                )
        if not 0 < fps < math.inf:
            raise ValueError(f"fps must be positive and finite, got {fps}")
        self.frames = frames
        self.fps = float(fps)

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, i) -> Frame:
        return self.frames[i]

    def stack(self) -> np.ndarray:
        """All frames as one (n, height, width) uint8 array."""
        return np.stack([f.pixels for f in self.frames])


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
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


def read_pnm(path) -> tuple[np.ndarray, list[str]]:
    """Read a binary PGM (P5) or PPM (P6) file.

    Returns the pixel grid as (height, width) uint8 (PPM converted to
    luminance) together with any header comment lines.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DecodeError(f"cannot read {path}: {exc}") from exc
    comments = [
        m.group(1).decode("ascii", "replace").strip()
        for m in re.finditer(rb"#([^\n]*)", data[:512])
    ]
    try:
        magic, pos = _read_token(data, 0)
        if magic not in (b"P5", b"P6"):
            raise DecodeError(f"{path}: unsupported magic {magic!r}")
        width, pos = _read_token(data, pos)
        height, pos = _read_token(data, pos)
        maxval, pos = _read_token(data, pos)
        w, h, mv = int(width), int(height), int(maxval)
    except (ValueError, DecodeError) as exc:
        raise DecodeError(f"{path}: malformed header ({exc})") from exc
    if w <= 0 or h <= 0:
        raise DecodeError(f"{path}: non-positive dimensions {w}x{h}")
    if mv != 255:
        raise DecodeError(f"{path}: only maxval 255 is supported, got {mv}")
    pos += 1  # single whitespace byte separates header from raster
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    raster = data[pos:pos + need]
    if len(raster) < need:
        raise DecodeError(f"{path}: truncated raster ({len(raster)} of {need} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8, count=need)
    if channels == 3:
        rgb = pixels.reshape(h, w, 3).astype(np.float64)
        pixels = np.rint(rgb @ _LUMA).astype(np.uint8)
    else:
        pixels = pixels.reshape(h, w)
    return pixels.copy(), comments


def write_pgm(path, pixels, comment: str | None = None) -> None:
    """Write an (h, w) uint8 grid as binary P5 PGM with maxval 255."""
    arr = np.ascontiguousarray(np.asarray(pixels, dtype=np.uint8))
    if arr.ndim != 2:
        raise DimensionMismatch("PGM output requires a 2-D grid")
    h, w = arr.shape
    header = f"P5\n{w} {h}\n"
    if comment is not None:
        header = f"P5\n# {comment}\n{w} {h}\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(b"255\n")
        fh.write(arr.tobytes())


def frame_filename(index: int) -> str:
    return f"frame_{index:04d}.pgm"


def load_sequence(directory, fps: float) -> FrameSequence:
    """Load numbered frames from a directory, ordered by numeric index.

    Files must match ``frame_<NNNN>.pgm`` (or ``.ppm``); ordering follows
    the numeric index alone, never the filesystem listing order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise EmptyDirectory(f"no such directory: {directory}")
    indexed: dict[int, Path] = {}
    for entry in directory.iterdir():
        m = FRAME_NAME_RE.match(entry.name)
        if not m:
            continue
        idx = int(m.group(1))
        if idx in indexed:
            raise DecodeError(f"duplicate frame index {idx} in {directory}")
        indexed[idx] = entry
    if not indexed:
        raise EmptyDirectory(f"no frame files in {directory}")
    frames = []
    for idx in sorted(indexed):
        pixels, _ = read_pnm(indexed[idx])
        frames.append(Frame(pixels))
    return FrameSequence(frames, fps)


def save_sequence(seq: FrameSequence, directory) -> None:
    """Write every frame as frame_0001.pgm, frame_0002.pgm, ..."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq, start=1):
        write_pgm(directory / frame_filename(i), frame.pixels)
