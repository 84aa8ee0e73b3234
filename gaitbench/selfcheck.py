"""Check that seed 0 of the frames workloads is the acceptance-suite benchmark.

    python3 gaitbench/selfcheck.py

Compares the walker tables of ``workloads.py`` with ``tests/conftest.py``,
then renders the dataset with the conftest generator loop and asserts
that its digest is ``workloads.SEED0_FRAMES_SHA256``, the digest
``run.py`` requires of its own seed-0 frames. Exits non-zero on a mismatch.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads
from gaitlock.imagery import save_sequence
from gaitlock.synthgait import generate


def load_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def render_conftest_dataset(conftest, root: Path) -> None:
    # the body of the benchmark_dataset fixture, which pytest forbids calling directly
    for subject in range(8):
        for sequence in range(conftest.BENCH_SEQUENCES):
            spec = conftest.benchmark_spec(subject, sequence)
            seq, _ = generate(
                spec,
                conftest.BENCH_FRAME_W,
                conftest.BENCH_FRAME_H,
                3 * spec.period_frames + 8,
                background_level=40,
            )
            save_sequence(seq, root / f"subj{subject:02d}" / f"seq{sequence}")


def main() -> int:
    conftest = load_conftest()
    ours = (workloads.FRAME_W, workloads.FRAME_H, workloads.NOISE, workloads.SEQUENCES)
    theirs = (conftest.BENCH_FRAME_W, conftest.BENCH_FRAME_H, conftest.BENCH_NOISE, conftest.BENCH_SEQUENCES)
    if ours != theirs:
        sys.exit(f"frame geometry, noise or sequence count differ from tests/conftest.py: {ours} != {theirs}")
    for subject in range(workloads.SUBJECTS):
        for sequence in range(workloads.SEQUENCES):
            ours = workloads.walker_spec(subject, sequence, seed=0)
            theirs = conftest.benchmark_spec(subject, sequence)
            if ours != theirs:
                sys.exit(f"walker {subject}/{sequence} differs from tests/conftest.py: {ours} != {theirs}")
    root = ROOT / ".gaitbench" / "selfcheck"
    shutil.rmtree(root, ignore_errors=True)
    try:
        render_conftest_dataset(conftest, root)
        digest = workloads.dataset_digest(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"acceptance-suite frames sha256: {digest}")
    if digest != workloads.SEED0_FRAMES_SHA256:
        sys.exit(f"digest differs from workloads.SEED0_FRAMES_SHA256 ({workloads.SEED0_FRAMES_SHA256})")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
