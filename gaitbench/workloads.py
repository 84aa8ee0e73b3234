"""Seeded inputs for the gaitlock benchmark.

Frames workloads render the 8-subject x 4-sequence walker benchmark of
the acceptance suite. Seed 0 reproduces those frames byte for byte; any
other seed changes only the salt-noise seeds. The gallery workload writes
a features CSV of Gaussian subject clusters drawn from the seed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from gaitlock.features import FEATURE_NAMES
from gaitlock.imagery import save_sequence
from gaitlock.synthgait import WalkerSpec, generate

# walker tables of the acceptance benchmark: subjects spaced >= 15% apart
# in body height, period and stride
HEIGHTS = (30, 35, 41, 48, 56, 65, 75, 87)
PERIODS = (10, 12, 14, 17, 20, 24, 28, 33)
STRIDES = (20, 23, 27, 32, 37, 43, 50, 58)
WIDTHS = (9, 11, 12, 15, 17, 20, 23, 26)
AMPLITUDES = (18, 21, 25, 29, 34, 39, 45, 52)
FRAME_W = 272
FRAME_H = 104
NOISE = 0.005
SUBJECTS = 8
SEQUENCES = 4
# every seed-0 noise seed (1000 * subject + sequence) lies below this
SEED_STRIDE = 10_000

GALLERY_SUBJECTS = 48
GALLERY_SEQUENCES = 8
GALLERY_SPREAD = 0.9

# sha256 over the seed-0 frame files, as dataset_digest computes it;
# selfcheck.py proves that the acceptance suite's generator yields it too
SEED0_FRAMES_SHA256 = "1ba717e35d2c2e62bf089829f9281a229865f44ba6bbdb092554ffe63e2aff7e"


def subject_name(subject: int) -> str:
    return f"subj{subject:02d}"


def walker_spec(subject: int, sequence: int, seed: int) -> WalkerSpec:
    return WalkerSpec(
        body_height=HEIGHTS[subject],
        body_width=WIDTHS[subject],
        period_frames=PERIODS[subject],
        stride_px=STRIDES[subject],
        leg_swing_amplitude=AMPLITUDES[subject],
        start_x=36,
        noise_rate=NOISE,
        seed=SEED_STRIDE * seed + 1000 * subject + sequence,
    )


def true_periods() -> dict[str, int]:
    """Generator period per subject name."""
    return {subject_name(s): PERIODS[s] for s in range(SUBJECTS)}


def write_frames(root: Path, seed: int) -> None:
    """Render every walker sequence as PGM frames under ``root``."""
    for subject in range(SUBJECTS):
        for sequence in range(SEQUENCES):
            spec = walker_spec(subject, sequence, seed)
            seq, _ = generate(
                spec, FRAME_W, FRAME_H, 3 * spec.period_frames + 8, background_level=40
            )
            save_sequence(seq, root / subject_name(subject) / f"seq{sequence}")


def write_gallery(path: Path, seed: int) -> None:
    """Features CSV: per subject a N(0, 1) centre per dimension, and
    sequences scattered around it with standard deviation GALLERY_SPREAD."""
    rng = np.random.default_rng(seed)
    dim = len(FEATURE_NAMES)
    centres = rng.standard_normal((GALLERY_SUBJECTS, dim))
    lines = ["subject,sequence," + ",".join(FEATURE_NAMES)]
    for subject in range(GALLERY_SUBJECTS):
        rows = centres[subject] + GALLERY_SPREAD * rng.standard_normal((GALLERY_SEQUENCES, dim))
        for sequence, row in enumerate(rows):
            values = ",".join(format(v, ".17g") for v in row)
            lines.append(f"{subject_name(subject)},seq{sequence},{values}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def dataset_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every file, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
