"""Frame and sequence data model plus PGM/PPM file ingestion.

Frames are single-channel 8-bit images. Binary PGM (P5, maxval 255) is the
canonical interchange format; binary PPM (P6) is accepted at ingestion and
converted to luminance. Emitted images are always P5 PGM.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path

import numpy as np

from .errors import DecodeError, DimensionMismatch, EmptyDirectory

FRAME_NAME_RE = re.compile(r"^frame_([0-9]+)\.(pgm|ppm)$")

# ITU-R BT.601 luminance weights for color ingestion
_LUMA = np.array([0.299, 0.587, 0.114])

# the header: four tokens (magic, width, height, maxval), each a run of
# non-whitespace, led by whitespace and '#'-to-end-of-line comments. A
# token never starts with '#' and ends only at whitespace or the end of
# the data, and a comment runs to its line end, so each part of the
# header can match one way only and a failed match backtracks nowhere
_SKIP = rb"(?:\s|#[^\n]*(?![^\n]))*"
_HEADER_RE = re.compile((_SKIP + rb"([^\s#]\S*)(?!\S)") * 4)
_COMMENT_RE = re.compile(rb"#([^\n]*)")

# the largest number a PNM header or a model-file count may spell: the
# largest C int, Netpbm's own limit on a header number
NUMBER_MAX = 2**31 - 1


def decimal_number(text: str, cap: int = NUMBER_MAX) -> int:
    """The value of ``text`` when it is ASCII decimal digits only and at
    most ``cap``; ValueError otherwise. Leading zeros are stripped first,
    so any number of them reads as the value they lead and int() never
    meets more digits than ``cap`` has (it refuses over 4,300)."""
    digits = text.lstrip("0") or "0"
    if not (text.isascii() and text.isdigit() and len(digits) <= len(str(cap))
            and int(digits) <= cap):
        raise ValueError(f"not a decimal number in [0, {cap}]: {shown(text)}")
    return int(digits)


def shown(text: str) -> str:
    """``text`` as an error message quotes it: its repr up to 20
    characters, else the repr of the first 20 and the length."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _grid(pixels) -> np.ndarray:
    """``pixels`` as a non-empty 2-D array of integers in [0, 255]."""
    arr = np.asarray(pixels)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatch(f"frame must be a non-empty 2-D grid, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("frame intensities must be integers")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("frame intensities must lie in [0, 255]")
    return arr


class Frame:
    """One grayscale image; pixels are an (height, width) uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        # frames are immutable once constructed; freeze a private copy
        arr = _grid(pixels).astype(np.uint8, copy=True)
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
    """Ordered frames sharing one resolution.

    ``frames`` is a sequence of ``Frame`` objects or 2-D grids, or an
    (n, height, width) array. The walk is held as ``pixels``, one
    read-only (n, height, width) uint8 array of its own.
    """

    def __init__(self, frames):
        grids = [f.pixels if isinstance(f, Frame) else _grid(f) for f in frames]
        if not grids:
            raise EmptyDirectory("a sequence needs at least one frame")
        h, w = grids[0].shape
        for i, g in enumerate(grids):
            if g.shape != (h, w):
                raise DimensionMismatch(
                    f"frame {i} is {g.shape[1]}x{g.shape[0]}, expected {w}x{h}"
                )
        self._hold(np.stack(grids).astype(np.uint8, copy=False))

    @classmethod
    def _owning(cls, pixels: np.ndarray) -> FrameSequence:
        """The sequence of a freshly filled (n, height, width) uint8 walk
        that no one else writes to while it is in use; it is frozen in
        place, not copied."""
        seq = cls.__new__(cls)
        seq._hold(pixels)
        return seq

    def _hold(self, pixels: np.ndarray) -> None:
        pixels.flags.writeable = False
        self.pixels = pixels

    @property
    def width(self) -> int:
        return self.pixels.shape[2]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    def __len__(self) -> int:
        return len(self.pixels)

    def __iter__(self):
        return map(Frame, self.pixels)

    def __getitem__(self, i: int) -> Frame:
        return Frame(self.pixels[i])


class WalkBuffers:
    """Arrays reused from one walk to the next: ``load_sequence`` reads
    each walk into the same memory, ``segment_sequence`` paints each
    walk's masks into the same memory. An array grows only when a walk
    needs more bytes than any before it, and what it holds is valid only
    until the next walk is read or segmented into it. A holder used for
    one walk only gives that walk arrays of its own."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The ``name`` array as a C-contiguous array of ``shape`` and
        ``dtype``, contents undefined."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        flat = self._flat.get(name)
        if flat is None or flat.size < nbytes:
            flat = self._flat[name] = np.empty(nbytes, dtype=np.uint8)
        return flat[:nbytes].view(dtype).reshape(shape)


def read_pnm(path) -> tuple[np.ndarray, list[str]]:
    """Read a binary PGM (P5) or PPM (P6) file.

    Returns the pixel grid as (height, width) uint8 (PPM converted to
    luminance) together with the header's comment lines. A P5 grid is a
    read-only view of the file's bytes. Header numbers are read by
    ``decimal_number``: leading zeros are ignored, and a number above
    ``NUMBER_MAX`` is a DecodeError.
    """
    pixels, comments, _ = _read_pnm(path)
    return pixels, comments


def _read_pnm(path) -> tuple[np.ndarray, list[str], bytes | None]:
    # read_pnm, plus the bytes before a P5 raster (None for P6): a file
    # that starts with the same bytes has the same header
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DecodeError(f"cannot read {path}: {exc}") from exc
    header = _HEADER_RE.match(data)
    if header is None:
        raise DecodeError(f"{path}: malformed header (unexpected end of header)")
    magic, *numbers = header.groups()
    if magic not in (b"P5", b"P6"):
        raise DecodeError(f"{path}: unsupported magic {magic!r}")
    try:  # ASCII decimal digits only, as Netpbm reads them; latin-1 decodes any byte
        w, h, mv = (decimal_number(token.decode("latin-1")) for token in numbers)
    except ValueError as exc:
        raise DecodeError(f"{path}: malformed header ({exc})") from None
    if w <= 0 or h <= 0:
        raise DecodeError(f"{path}: non-positive dimensions {w}x{h}")
    if mv != 255:
        raise DecodeError(f"{path}: only maxval 255 is supported, got {mv}")
    pos = header.end() + 1  # single whitespace byte separates header from raster
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    if len(data) - pos < need:
        have = max(0, len(data) - pos)
        raise DecodeError(f"{path}: truncated raster ({have} of {need} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    if channels == 3:
        rgb = pixels.reshape(h, w, 3).astype(np.float64)
        pixels = np.rint(rgb @ _LUMA).astype(np.uint8)
    comments = [
        m.group(1).decode("ascii", "replace").strip()
        for m in _COMMENT_RE.finditer(data, 0, header.end())
    ]
    return pixels.reshape(h, w), comments, data[:pos] if channels == 1 else None


def _read_raster(path, head: bytes, out: np.ndarray) -> bool:
    # read the file's raster into ``out`` if the file starts with ``head``,
    # the bytes before a P5 raster of out's shape; False, with ``out`` in
    # any state, if it does not or a read falls short or fails
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read(len(head)) == head and fh.readinto(out) == out.nbytes
    except OSError:
        return False


def write_pgm(path, pixels, comment: str | None = None) -> None:
    """Write an (h, w) uint8 grid as binary P5 PGM with maxval 255.

    ``comment`` goes into the header as one comment line, so it must be
    ASCII text without a line break; anything else raises ValueError
    before the file is opened.
    """
    arr = np.ascontiguousarray(np.asarray(pixels, dtype=np.uint8))
    if arr.ndim != 2:
        raise DimensionMismatch("PGM output requires a 2-D grid")
    if comment is not None and (not comment.isascii() or "\n" in comment or "\r" in comment):
        raise ValueError(f"PGM comment must be one line of ASCII text, got {comment!r}")
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


def load_sequence(directory, buffers: WalkBuffers | None = None) -> FrameSequence:
    """Load numbered frames from a directory, ordered by numeric index.

    Files must match ``frame_<NNNN>.pgm`` (or ``.ppm``), ``NNNN`` in ASCII
    digits; other names are ignored. Ordering follows the numeric index
    alone, never the filesystem listing order. Each
    frame is read straight into the walk's one array, sized by the first:
    a later file whose bytes before the raster equal a P5 first frame's
    has its raster read in place, any other file is read and checked
    whole. With ``buffers`` the walk is read into their ``walk`` array,
    so the sequence is valid only until the next walk is read into them;
    without, the sequence owns its array.
    """
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
    first, _, head = _read_pnm(paths[0])
    walk = (buffers or WalkBuffers()).array("walk", (len(paths), *first.shape), np.uint8)
    walk[0] = first
    for i, path in enumerate(paths[1:], start=1):
        if head is not None and _read_raster(path, head, walk[i]):
            continue
        pixels, _ = read_pnm(path)
        if pixels.shape != first.shape:
            (h, w), (h0, w0) = pixels.shape, first.shape
            raise DimensionMismatch(f"{path} is {w}x{h}, but {paths[0]} is {w0}x{h0}")
        walk[i] = pixels
    return FrameSequence._owning(walk)


def save_sequence(seq: FrameSequence, directory) -> None:
    """Write every frame as frame_0001.pgm, frame_0002.pgm, ..."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = f"P5\n{seq.width} {seq.height}\n255\n".encode("ascii")
    for i, pixels in enumerate(seq.pixels, start=1):
        with open(os.path.join(directory, frame_filename(i)), "wb", buffering=0) as fh:
            fh.write(header + pixels.tobytes())  # one write call per file
