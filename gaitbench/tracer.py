"""Spans and counters recorded from outside the library.

The benchmark replaces public functions of the gaitlock modules with
wrappers that record one span (name, start, end, parent) per call, then
restores the originals. Wrappers patch the module attribute that the
caller looks up, so ``pipeline.load_sequence`` is wrapped where
``pipeline`` uses it. Counters are computed after a call returns, on a
clock that is paused meanwhile, so counting never lands inside a span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gaitlock import features, gaitcycle, pipeline, segmentation, svm

ROOT = "pipeline.run_pipeline"


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, self.now(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                self._open.pop()
            if count is not None:
                with self.untimed():
                    count(self.counts, result, *args, **kwargs)
            return result

        return traced


def _count_load(counts, seq, directory, *_, **__):
    counts["imagery.frames"] += len(seq)
    counts["imagery.bytes_read"] += sum(p.stat().st_size for p in Path(directory).iterdir())


def _count_background(counts, _bg, seq, *_, **__):
    counts["background.frames"] += len(seq)


def _count_difference(counts, *_, **__):
    counts["segmentation.frames"] += 1


def _count_clean(counts, cleaned, *_, **__):
    counts["segmentation.empty_frames"] += cleaned.empty


def _count_largest(counts, kept, mask, *_, **__):
    mask = np.asarray(mask, dtype=bool)
    # a row-run starts at every foreground pixel whose left neighbour is background
    counts["segmentation.runs"] += int(np.count_nonzero(mask[:, 0])) + int(
        np.count_nonzero(mask[:, 1:] & ~mask[:, :-1])
    )
    counts["segmentation.pixels_in"] += int(np.count_nonzero(mask))
    counts["segmentation.pixels_kept"] += int(np.count_nonzero(kept))


def _count_wavelet(counts, _vec, masks, *_, **__):
    counts["features.frames_transformed"] += sum(m.bbox is not None for m in masks)


def _count_binary(counts, machine, x, *_, **__):
    counts["svm.train_binary.samples"] += len(x)
    counts["svm.support_vectors"] += len(machine.support_vectors)


def _count_predict(counts, labels, model, *_, **__):
    counts["svm.predictions"] += len(labels)
    counts["svm.decision_evals"] += len(labels) * len(model.binaries)


# (module, attribute, span name, counter) for every layer boundary
LAYER_TARGETS = (
    (pipeline, "run_pipeline", ROOT, None),
    (pipeline, "sequence_feature_row", "pipeline.sequence_feature_row", None),
    (pipeline, "load_sequence", "imagery.load_sequence", _count_load),
    (pipeline, "build_background", "background.build_background", _count_background),
    (pipeline, "difference_mask", "segmentation.difference_mask", _count_difference),
    (pipeline, "clean_mask", "segmentation.clean_mask", _count_clean),
    (segmentation, "largest_component", "segmentation.largest_component", _count_largest),
    (gaitcycle, "width_signal", "gaitcycle.width_signal", None),
    (gaitcycle, "estimate_period", "gaitcycle.estimate_period", None),
    (gaitcycle, "partition_cycles", "gaitcycle.partition_cycles", None),
    (gaitcycle, "select_feature_window", "gaitcycle.select_feature_window", None),
    (features, "spatial_features", "features.spatial_features", None),
    (features, "temporal_features", "features.temporal_features", None),
    (features, "wavelet_features", "features.wavelet_features", _count_wavelet),
    (pipeline, "write_features_csv", "pipeline.write_features_csv", None),
    (svm, "train_multiclass", "svm.train_multiclass", None),
    (svm, "train_binary", "svm.train_binary", _count_binary),
    (svm, "kernel_matrix", "svm.kernel_matrix", None),
    (svm, "predict_many", "svm.predict_many", _count_predict),
    (svm, "save_model", "svm.save_model", None),
)

# the boundaries the end-to-end metrics need; few calls, so cheap to keep on
E2E_TARGETS = tuple(
    t for t in LAYER_TARGETS
    if t[2] in ("pipeline.sequence_feature_row", "svm.train_multiclass", "svm.predict_many")
)


@contextmanager
def patched(tracer: Tracer, targets):
    """Install the tracer's wrappers for ``targets``; always restore the originals."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
    try:
        for (module, attr, name, count), (_, _, fn) in zip(targets, originals):
            setattr(module, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer times and counts of one traced ``run_pipeline`` call."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    for (name, start, end, _), s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        self_total[name] += s

    def prefixed(prefix):
        return sum(v for k, v in total.items() if k.startswith(prefix))

    pixels_in = counts["segmentation.pixels_in"]
    return {
        "imagery.load_sequence.s": total["imagery.load_sequence"],
        "imagery.frames": counts["imagery.frames"],
        "imagery.bytes_read": counts["imagery.bytes_read"],
        "background.build_background.s": total["background.build_background"],
        "background.frames": counts["background.frames"],
        "segmentation.difference_mask.s": total["segmentation.difference_mask"],
        "segmentation.clean_mask.s": self_total["segmentation.clean_mask"],
        "segmentation.largest_component.s": total["segmentation.largest_component"],
        "segmentation.frames": counts["segmentation.frames"],
        "segmentation.runs": counts["segmentation.runs"],
        "segmentation.kept_ratio": counts["segmentation.pixels_kept"] / pixels_in if pixels_in else 0.0,
        "segmentation.empty_frames": counts["segmentation.empty_frames"],
        "gaitcycle.s": prefixed("gaitcycle."),
        "gaitcycle.period_match_ratio": counts["gaitcycle.period_match_ratio"],
        "features.s": prefixed("features."),
        "features.wavelet_features.s": total["features.wavelet_features"],
        "features.frames_transformed": counts["features.frames_transformed"],
        "svm.train_multiclass.s": total["svm.train_multiclass"],
        "svm.train_binary.s": total["svm.train_binary"],
        "svm.train_binary.calls": calls["svm.train_binary"],
        "svm.train_binary.samples": counts["svm.train_binary.samples"],
        "svm.support_vectors": counts["svm.support_vectors"],
        "svm.predict_many.s": total["svm.predict_many"],
        "svm.predictions": counts["svm.predictions"],
        "svm.decision_evals": counts["svm.decision_evals"],
        "svm.kernel_matrix.calls": calls["svm.kernel_matrix"],
        "svm.kernel_matrix.s": total["svm.kernel_matrix"],
        "svm.save_model.s": total["svm.save_model"],
        "pipeline.write_features_csv.s": total["pipeline.write_features_csv"],
        "pipeline.self_s": self_total[ROOT],
    }


# metrics that count work: they must repeat exactly between runs of one input
COUNT_METRICS = (
    "imagery.frames",
    "imagery.bytes_read",
    "background.frames",
    "segmentation.frames",
    "segmentation.runs",
    "segmentation.kept_ratio",
    "segmentation.empty_frames",
    "gaitcycle.period_match_ratio",
    "features.frames_transformed",
    "svm.train_binary.calls",
    "svm.train_binary.samples",
    "svm.support_vectors",
    "svm.predictions",
    "svm.decision_evals",
    "svm.kernel_matrix.calls",
)
