"""End-to-end orchestration: dataset walking, per-sequence features,
training, evaluation, and the feature-set / kernel comparison harnesses.

A dataset is a directory tree ``<data_dir>/<subject>/<sequence>/`` where
each sequence directory holds numbered PGM frames. Every run writes its
artifacts (features.csv, model.svm, gallery.csv, report.txt) into the
configured output directory. A run whose ``features_csv`` names an
earlier run's features.csv reuses that extraction and skips the imaging
stages.
"""

from __future__ import annotations

import itertools
import math
import typing
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import features as feat
from . import gaitcycle, metrics, svm
from .background import TECHNIQUES, build_background, check_threshold
from .errors import (
    BadName,
    EmptyDirectory,
    EmptyInput,
    FormatError,
    GaitlockError,
    StageError,
    TooFewSequences,
)
from .imagery import WalkBuffers, load_sequence
from .segmentation import bounding_boxes, centroids_x, segment_sequence

# not called here; gaitbench/tracer.py wraps pipeline.difference_mask and
# pipeline.clean_mask by name and fails every traced call without them
from .segmentation import clean_mask, difference_mask  # noqa: F401

_S, _T, _W = tuple(range(0, 4)), tuple(range(4, 8)), tuple(range(8, 14))
# (name, descriptor columns) per feature set of the comparison
FEATURE_SETS = (
    ("S", _S),
    ("T", _T),
    ("W", _W),
    ("S+T", _S + _T),
    ("S+W", _S + _W),
    ("S+T+W", _S + _T + _W),
)
ALL_COLUMNS = FEATURE_SETS[-1][1]

SWEEP_C = (0.1, 1.0, 10.0, 100.0)
# grid values of each parameter named in svm.KERNEL_PARAMS
SWEEP_PARAMS = {"degree": (2, 3), "sigma": (0.5, 1.0, 2.0, 5.0)}


@dataclass
class PipelineConfig:
    """Resolved configuration; every field lands in the report."""

    data_dir: str = ""
    out_dir: str = ""
    features_csv: str = ""  # precomputed features; skips the imaging stages
    fps: float = 25.0
    background_technique: str = "median"
    background_threshold: str = "auto"
    segmentation_threshold: str = "auto"
    kernel: str = "rbf"
    c: float = 10.0
    degree: int = 3
    sigma: float = 2.0
    split_fraction: float = 0.75
    split_seed: int = 0
    seed: int = 0
    smo_tol: float = 1e-3
    smo_max_passes: int = 10

    def validate(self) -> None:
        # report.txt is ASCII; a value it cannot hold fails here, before any stage
        for f in fields(self):
            value = str(getattr(self, f.name))
            if not value.isascii():
                raise ValueError(f"config value of {f.name} must be ASCII, got {ascii(value)}")
        check_threshold(self.background_threshold, "background_threshold")
        check_threshold(self.segmentation_threshold, "segmentation_threshold")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        if self.background_technique not in TECHNIQUES:
            raise ValueError(f"unknown background technique {self.background_technique!r}")
        self.kernel_spec()
        feat.check_fps(self.fps)
        if not 0 < self.smo_tol < math.inf:
            raise ValueError(f"smo_tol must be positive and finite, got {self.smo_tol}")
        if self.smo_max_passes < 1:
            raise ValueError("smo_max_passes must be at least 1")
        if self.split_seed < 0:
            raise ValueError("split_seed must be non-negative")
        named = [p for p in (self.data_dir, self.out_dir, self.features_csv) if p]
        if len(set(Path(p).resolve() for p in named)) != len(named):
            raise ValueError("data_dir, out_dir and features_csv must be distinct paths")

    def kernel_spec(self) -> svm.KernelSpec:
        return svm.KernelSpec(
            self.kernel,
            self.c,
            **{name: getattr(self, name) for name in svm.KERNEL_PARAMS.get(self.kernel, ())},
        )


def read_kv_file(path) -> dict[str, str]:
    """Flat ``key = value`` file with ``#`` comments; '=' is optional. A
    byte that is not ASCII reads as U+FFFD, which the typed conversion or
    the config's ASCII check refuses under the key it belongs to."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="ascii", errors="replace").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        values[key.strip()] = value.strip()
    return values


def typed_values(values: dict, hints: dict, what: str) -> dict:
    """``values`` converted to the types that ``hints`` gives their keys
    (``int | None`` converts to int); an unknown key or a value that does
    not convert is a ValueError naming the key."""
    typed = {}
    for key, value in values.items():
        if key not in hints:
            raise ValueError(f"unknown {what} key {key!r}")
        kind = (typing.get_args(hints[key]) or (hints[key],))[0]
        try:
            typed[key] = kind(value)
        except ValueError as exc:
            message = f"{what} key {key} must be {kind.__name__}, got {ascii(value)}"
            raise ValueError(message) from exc
    return typed


def parse_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """The settings of the ``key = value`` file at ``path``, if given,
    under the ``overrides`` that are not None."""
    values = read_kv_file(path) if path else {}
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return config_from_values(values)


def config_from_values(values: dict) -> PipelineConfig:
    hints = typing.get_type_hints(PipelineConfig)
    cfg = PipelineConfig(**typed_values(values, hints, "config"))
    cfg.validate()
    return cfg


@dataclass
class FeatureRow:
    subject: str
    sequence: str
    vector: np.ndarray
    period: int = 0


def check_name(name: str, where: str) -> str:
    """Subject and sequence names go unquoted into features.csv and
    model.svm, so only printable ASCII without spaces or commas is
    accepted; ``where`` names the directory, row or option it came from."""
    if not name or not all("!" <= ch <= "~" and ch != "," for ch in name):
        raise BadName(
            f"name {name!r} in {where} must be printable ASCII without spaces or commas"
        )
    return name


def discover_dataset(data_dir) -> list[tuple[str, str, Path]]:
    """(subject, sequence, path) triples, sorted for determinism."""
    root = Path(data_dir)
    if not root.is_dir():
        raise EmptyDirectory(f"dataset directory {root} does not exist")
    triples = []
    for subject_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        check_name(subject_dir.name, f"directory {subject_dir}")
        for seq_dir in sorted(p for p in subject_dir.iterdir() if p.is_dir()):
            check_name(seq_dir.name, f"directory {seq_dir}")
            triples.append((subject_dir.name, seq_dir.name, seq_dir))
    if not triples:
        raise EmptyDirectory(f"no <subject>/<sequence> directories under {root}")
    return triples


@contextmanager
def _stage(name: str, location: str | None = None):
    """Re-raise a library error from the block as a StageError naming the
    stage and, inside one sequence, its ``subject/sequence``."""
    try:
        yield
    except StageError:
        raise
    except GaitlockError as exc:
        raise StageError(name, exc, location) from exc


def masks_feature_row(subject: str, sequence: str, masks, fps: float) -> FeatureRow:
    """Fused descriptor of an already-segmented silhouette sequence, an
    (n, h, w) bool array."""
    location = f"{subject}/{sequence}"
    with _stage("gait-cycle", location):
        boxes = bounding_boxes(masks)
        signal = gaitcycle.width_signal(boxes)
        period = gaitcycle.estimate_period(signal)
        cycles = gaitcycle.partition_cycles(signal, period)
        window = gaitcycle.select_feature_window(cycles)
    with _stage("features", location):
        frames = slice(window[0].start_frame, window[-1].end_frame + 1)
        spatial = feat.spatial_features(boxes[frames])
        temporal = feat.temporal_features(centroids_x(masks[frames]), period, fps)
        wavelet = feat.wavelet_statistics(feat.subband_energies(masks[frames], boxes[frames]))
        vector = feat.fuse(spatial, temporal, wavelet)
    return FeatureRow(subject, sequence, vector, period)


def sequence_feature_row(
    subject: str, sequence: str, seq_dir, cfg: PipelineConfig, buffers: WalkBuffers | None = None
) -> FeatureRow:
    """Run one sequence through ingestion, segmentation, cycle analysis
    and feature extraction, reading and segmenting it into ``buffers``
    if given."""
    location = f"{subject}/{sequence}"
    with _stage("ingestion", location):
        seq = load_sequence(seq_dir, buffers=buffers)
    with _stage("background", location):
        bg = build_background(seq, cfg.background_technique, cfg.background_threshold)
    with _stage("segmentation", location):
        masks = segment_sequence(seq, bg, cfg.segmentation_threshold, buffers=buffers)
    return masks_feature_row(subject, sequence, masks, cfg.fps)


def extract_features(cfg: PipelineConfig) -> list[FeatureRow]:
    """One feature row per walk of the dataset, every walk read and
    segmented into the same buffers."""
    with _stage("ingestion"):
        triples = discover_dataset(cfg.data_dir)
    buffers = WalkBuffers()
    return [
        sequence_feature_row(subject, sequence, path, cfg, buffers=buffers)
        for subject, sequence, path in triples
    ]


def write_features_csv(rows: list[FeatureRow], path) -> None:
    lines = ["subject,sequence," + ",".join(feat.FEATURE_NAMES)]
    for row in rows:
        values = ",".join(format(v, ".17g") for v in row.vector)
        lines.append(f"{row.subject},{row.sequence},{values}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def read_ascii_lines(path) -> list[str]:
    """The lines of an ASCII text file; any other byte is a FormatError
    naming the file and the byte's offset."""
    try:
        return Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text ({exc.reason} at byte {exc.start})") from exc


def read_features_csv(path) -> list[FeatureRow]:
    lines = read_ascii_lines(path)
    if not lines:
        raise EmptyInput(f"features file {path} is empty")
    expected = "subject,sequence," + ",".join(feat.FEATURE_NAMES)
    if lines[0] != expected:
        raise FormatError(f"{path} line 1: unexpected features header")
    n_fields = 2 + len(feat.FEATURE_NAMES)
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise FormatError(f"{path} line {number}: expected {n_fields} fields, got {len(parts)}")
        subject, sequence = (check_name(p, f"{path} line {number}") for p in parts[:2])
        try:
            vector = np.array([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise FormatError(f"{path} line {number}: {exc}") from exc
        finite = np.isfinite(vector)
        if not finite.all():
            column = feat.FEATURE_NAMES[int(finite.argmin())]
            raise FormatError(f"{path} line {number}: {column} is NaN or infinity")
        rows.append(FeatureRow(subject, sequence, vector))
    if not rows:
        raise EmptyInput(f"features file {path} has no rows")
    return rows


def split_rows(
    rows: list[FeatureRow], fraction: float, seed: int
) -> tuple[list[FeatureRow], list[FeatureRow]]:
    """Per-subject train/test split; at least one sequence on each side."""
    by_subject: dict[str, list[FeatureRow]] = {}
    for row in rows:
        by_subject.setdefault(row.subject, []).append(row)
    train: list[FeatureRow] = []
    test: list[FeatureRow] = []
    for idx, subject in enumerate(sorted(by_subject)):
        group = sorted(by_subject[subject], key=lambda r: r.sequence)
        n = len(group)
        n_test = max(1, round(n * (1.0 - fraction)))
        if n_test >= n:
            raise TooFewSequences(f"subject {subject} has too few sequences to split ({n})")
        rng = np.random.default_rng([seed, idx])
        test_idx = set(rng.choice(n, size=n_test, replace=False).tolist())
        for i, row in enumerate(group):
            (test if i in test_idx else train).append(row)
    return train, test


def feature_matrix(rows: list[FeatureRow], columns=ALL_COLUMNS) -> np.ndarray:
    """The rows' descriptors restricted to ``columns``. Selecting per row
    keeps the matrix C-contiguous; a column selection of the stacked
    matrix is not, and changes the last bits of the normalization."""
    index = list(columns)
    return np.array([r.vector[index] for r in rows])


def train_rows(
    rows: list[FeatureRow], spec: svm.KernelSpec, cfg: PipelineConfig, columns=ALL_COLUMNS
) -> svm.SvmModel:
    """Multi-class model on ``columns`` of the rows, labelled by subject."""
    with _stage("training"):
        return svm.train_multiclass(
            feature_matrix(rows, columns),
            [r.subject for r in rows],
            spec,
            tol=cfg.smo_tol,
            max_passes=cfg.smo_max_passes,
        )


def score_model(model: svm.SvmModel, x: np.ndarray, truth) -> tuple[metrics.ConfusionMatrix, dict]:
    """Confusion matrix and measures of the model's labels for ``x``."""
    cm = metrics.evaluate(truth, svm.predict_many(model, x))
    return cm, metrics.measures(cm)


def _accuracy(
    train: list[FeatureRow],
    test: list[FeatureRow],
    spec: svm.KernelSpec,
    cfg: PipelineConfig,
    columns=ALL_COLUMNS,
) -> float:
    model = train_rows(train, spec, cfg, columns)
    with _stage("evaluation"):
        _, scores = score_model(model, feature_matrix(test, columns), [r.subject for r in test])
    return scores["accuracy"]


def gallery_means(train: list[FeatureRow]) -> list[tuple[str, np.ndarray]]:
    """Per-subject mean feature vector over the training sequences."""
    by_subject: dict[str, list[np.ndarray]] = {}
    for row in train:
        by_subject.setdefault(row.subject, []).append(row.vector)
    return [(s, np.mean(by_subject[s], axis=0)) for s in sorted(by_subject)]


def write_gallery_csv(gallery: list[tuple[str, np.ndarray]], path) -> None:
    lines = ["subject," + ",".join(feat.FEATURE_NAMES)]
    for subject, mean in gallery:
        lines.append(subject + "," + ",".join(format(v, ".17g") for v in mean))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def nearest_gallery_accuracy(
    gallery: list[tuple[str, np.ndarray]], test: list[FeatureRow], model: svm.SvmModel
) -> float:
    """Sanity baseline: nearest per-subject mean in normalized space."""
    hits = 0
    means = np.array([model.normalize(mean) for _, mean in gallery])
    names = [s for s, _ in gallery]
    for row in test:
        z = model.normalize(row.vector)
        nearest = names[int(np.argmin(((means - z) ** 2).sum(axis=1)))]
        hits += nearest == row.subject
    return hits / len(test)


def _render_config(cfg: PipelineConfig) -> list[str]:
    lines = ["[config]"]
    for f in sorted(fields(cfg), key=lambda f: f.name):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return lines


def render_scores(cm: metrics.ConfusionMatrix, scores: dict) -> list[str]:
    """The report's ``[confusion-matrix]`` and ``[measures]`` sections."""
    lines = ["[confusion-matrix]", "truth\\predicted," + ",".join(cm.classes)]
    for i, cls in enumerate(cm.classes):
        lines.append(cls + "," + ",".join(str(v) for v in cm.counts[i]))
    lines += ["", "[measures]"]
    for key in ("accuracy", "precision", "recall", "f_measure"):
        lines.append(f"{key} = {scores[key]:.6f}")
    return lines


@dataclass
class PipelineResult:
    config: PipelineConfig
    rows: list[FeatureRow]
    train: list[FeatureRow]
    test: list[FeatureRow]
    model: svm.SvmModel
    confusion: metrics.ConfusionMatrix
    scores: dict[str, float]
    nn_accuracy: float
    report: str = ""


def _set_up(cfg: PipelineConfig):
    """Validate ``cfg``, create its out_dir, take the features from
    ``features_csv`` or extract them into ``<out_dir>/features.csv``, and
    split them. Returns (out_dir, rows, train, test)."""
    cfg.validate()
    if not cfg.out_dir:
        raise ValueError("the run needs an out_dir")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.features_csv:
        rows = read_features_csv(cfg.features_csv)
    else:
        rows = extract_features(cfg)
        write_features_csv(rows, out / "features.csv")
    train, test = split_rows(rows, cfg.split_fraction, cfg.split_seed)
    return out, rows, train, test


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Full run: features, split, training, gallery, evaluation, report."""
    out, rows, train, test = _set_up(cfg)
    model = train_rows(train, cfg.kernel_spec(), cfg)
    svm.save_model(model, out / "model.svm")
    with _stage("evaluation"):
        cm, scores = score_model(model, feature_matrix(test), [r.subject for r in test])
    gallery = gallery_means(train)
    write_gallery_csv(gallery, out / "gallery.csv")
    nn_accuracy = nearest_gallery_accuracy(gallery, test, model)

    lines = ["gaitlock pipeline report", ""]
    lines += _render_config(cfg)
    lines += ["", "[split]"]
    lines.append("train = " + " ".join(f"{r.subject}/{r.sequence}" for r in train))
    lines.append("test = " + " ".join(f"{r.subject}/{r.sequence}" for r in test))
    lines += [""] + render_scores(cm, scores)
    lines.append(f"nn_baseline_accuracy = {nn_accuracy:.6f}")
    report = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(report, encoding="ascii")
    return PipelineResult(cfg, rows, train, test, model, cm, scores, nn_accuracy, report)


def run_ablation(cfg: PipelineConfig) -> list[dict]:
    """Train and evaluate one model per feature set, all else fixed."""
    out, _, train, test = _set_up(cfg)
    results = []
    for name, columns in FEATURE_SETS:
        accuracy = _accuracy(train, test, cfg.kernel_spec(), cfg, columns)
        results.append({"feature_set": name, "dimension": len(columns), "accuracy": accuracy})
    (out / "ablation.csv").write_text(render_ablation(results), encoding="ascii")
    return results


def render_ablation(results: list[dict]) -> str:
    """``ablation.csv``: one row per feature set."""
    lines = ["feature_set,dimension,accuracy"]
    for r in results:
        lines.append(f"{r['feature_set']},{r['dimension']},{r['accuracy']:.6f}")
    return "\n".join(lines) + "\n"


def sweep_grid(kernel: str) -> list[svm.KernelSpec]:
    """Every grid point of ``kernel``: c major, then its parameters."""
    names = svm.KERNEL_PARAMS[kernel]
    return [
        svm.KernelSpec(kernel, c, **dict(zip(names, values)))
        for c in SWEEP_C
        for values in itertools.product(*(SWEEP_PARAMS[name] for name in names))
    ]


def run_kernel_sweep(cfg: PipelineConfig) -> list[dict]:
    """Evaluate every grid point per kernel kind; report each kind's best."""
    out, _, train, test = _set_up(cfg)
    results = []
    for kernel in svm.KERNELS:
        grid = sweep_grid(kernel)
        accuracies = [_accuracy(train, test, spec, cfg) for spec in grid]
        best = grid[accuracies.index(max(accuracies))]  # the first of equal accuracies
        results.append({
            "kernel": kernel,
            "c": best.c,
            "degree": best.degree,
            "sigma": best.sigma,
            "accuracy": max(accuracies),
            "evaluations": len(grid),
        })
    (out / "kernel_sweep.csv").write_text(render_sweep(results), encoding="ascii")
    return results


def render_sweep(results: list[dict]) -> str:
    """``kernel_sweep.csv``: each kernel kind's best grid point."""
    lines = ["kernel,c,degree,sigma,accuracy,evaluations"]
    for r in results:
        degree = "" if r["degree"] is None else str(r["degree"])
        sigma = "" if r["sigma"] is None else format(r["sigma"], "g")
        lines.append(
            f"{r['kernel']},{r['c']:g},{degree},{sigma},{r['accuracy']:.6f},{r['evaluations']}"
        )
    return "\n".join(lines) + "\n"
