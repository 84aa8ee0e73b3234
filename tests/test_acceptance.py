"""Acceptance suite: one test per release criterion, one printed verdict
line per criterion. Run with ``pytest tests/test_acceptance.py -s`` to see
the verdict lines inline."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from gaitlock import pipeline
from gaitlock.background import model_cdm, model_histogram, model_median
from gaitlock.errors import NoPeriodicity
from gaitlock.features import haar_dwt2, haar_idwt2
from gaitlock.gaitcycle import estimate_period, width_signal
from gaitlock.imagery import FrameSequence
from gaitlock.metrics import evaluate, measures
from gaitlock.segmentation import bounding_boxes, segment_sequence
from gaitlock.svm import KernelSpec, kkt_violation, predict, train_binary, train_multiclass
from gaitlock.synthgait import WalkerSpec, generate

from conftest import BENCH_SEQUENCES


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {label}")
        raise
    print(f"criterion {number} PASS: {label}")


def test_criterion_1_end_to_end_accuracy(benchmark_run):
    with criterion(1, "synthetic end-to-end RBF accuracy >= 0.85 within 120 s"):
        result = benchmark_run.result
        assert len(result.rows) == 8 * BENCH_SEQUENCES
        assert result.confusion.total == 8  # one held-out sequence per subject
        assert result.scores["accuracy"] >= 0.85, result.scores
        elapsed = benchmark_run.generate_seconds + benchmark_run.pipeline_seconds
        assert elapsed <= 120.0, f"took {elapsed:.1f} s"


def test_criterion_2_ablation_ordering(benchmark_run, tmp_path):
    with criterion(2, "fused features beat every single feature type; dims 4/4/6/8/10/14"):
        cfg = pipeline.PipelineConfig(
            features_csv=str(benchmark_run.out_dir / "features.csv"),
            out_dir=str(tmp_path / "ablation"),
        )
        results = pipeline.run_ablation(cfg)
        by_name = {r["feature_set"]: r for r in results}
        assert [r["dimension"] for r in results] == [4, 4, 6, 8, 10, 14]
        fused = by_name["S+T+W"]["accuracy"]
        singles = max(by_name["S"]["accuracy"], by_name["T"]["accuracy"], by_name["W"]["accuracy"])
        assert fused >= singles, (fused, singles)


def _xor_augmented_rows():
    # two walkers distinguishable only by the sign agreement of two
    # feature dimensions; every other dimension is constant
    base = np.array([60.0, 25.0, 67.0, 2.4, 40.0, 20.0, 100.0, 2000.0,
                     2.4, 0.05, 0.03, 0.01, 0.01, 0.004])
    rng = np.random.default_rng(42)
    rows = []
    corners = {"walker_a": [(+1, +1), (-1, -1)], "walker_b": [(+1, -1), (-1, +1)]}
    for subject, pattern in corners.items():
        for sequence in range(8):
            sign_h, sign_e = pattern[sequence % 2]
            vector = base.copy()
            vector[0] += sign_h * 6.0 * (1.0 + 0.02 * rng.standard_normal())
            vector[8] += sign_e * 0.6 * (1.0 + 0.02 * rng.standard_normal())
            rows.append(pipeline.FeatureRow(subject, f"seq{sequence}", vector))
    return rows


def test_criterion_3_kernel_ordering(tmp_path):
    with criterion(3, "RBF handles the nonlinear benchmark that defeats the linear kernel"):
        rows = _xor_augmented_rows()
        features_path = tmp_path / "xor_features.csv"
        pipeline.write_features_csv(rows, features_path)
        cfg = pipeline.PipelineConfig(
            features_csv=str(features_path), out_dir=str(tmp_path / "sweep")
        )
        results = {r["kernel"]: r for r in pipeline.run_kernel_sweep(cfg)}
        assert results["rbf"]["accuracy"] >= results["linear"]["accuracy"], results

        xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        xor_labels = ["a", "a", "b", "b"]
        linear = train_multiclass(xor_x, xor_labels, KernelSpec("linear", 10.0))
        linear_acc = np.mean([predict(linear, r) == t for r, t in zip(xor_x, xor_labels)])
        rbf = train_multiclass(xor_x, xor_labels, KernelSpec("rbf", 10.0, sigma=0.5))
        rbf_acc = np.mean([predict(rbf, r) == t for r, t in zip(xor_x, xor_labels)])
        assert linear_acc <= 0.75
        assert rbf_acc == 1.0


def test_criterion_4_background_models():
    with criterion(4, "median recovery, histogram tie rule, change-mask hand trace"):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(5, 25))
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            truth = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            stack = np.repeat(truth[None], n, axis=0).copy()
            for r in range(h):
                for c in range(w):
                    occlusions = int(rng.integers(0, (n - 1) // 2 + 1))
                    frames = rng.choice(n, size=occlusions, replace=False)
                    stack[frames, r, c] = rng.integers(0, 256, size=occlusions)
            seq = FrameSequence(list(stack))
            assert np.array_equal(model_median(seq).reference, truth)

        tie = FrameSequence(
            [np.array([[v]], dtype=np.uint8) for v in (12, 12, 40, 40, 7)]
        )
        assert model_histogram(tie).reference[0, 0] == 12

        trace = FrameSequence(
            [np.array([[v]], dtype=np.uint8) for v in (10, 10, 10, 50, 10)]
        )
        assert model_cdm(trace, threshold=20).reference[0, 0] == 10


def test_criterion_5_haar_transform():
    with criterion(5, "Parseval within 1e-9, exact inverse within 1e-12, butterfly case"):
        rng = np.random.default_rng(23)
        for _ in range(100):
            image = rng.normal(0.0, 2.0, size=(64, 64))
            subbands = haar_dwt2(image)
            energy_in = float((image * image).sum())
            energy_out = float(sum((s * s).sum() for s in subbands))
            assert abs(energy_in - energy_out) <= 1e-9 * energy_in
            assert np.abs(haar_idwt2(*subbands) - image).max() <= 1e-12
        ll, lh, hl, hh = haar_dwt2([[4.0, 0.0], [0.0, 0.0]])
        assert (ll[0, 0], lh[0, 0], hl[0, 0], hh[0, 0]) == (2.0, 2.0, 2.0, 2.0)


def test_criterion_6_period_estimation():
    with criterion(6, "exact sinusoid periods, walker periods within 1 frame, no false period"):
        for p in range(10, 41):
            t = np.arange(4 * p)
            signal = 50.0 + 10.0 * np.sin(2 * np.pi * t / p)
            assert estimate_period(signal) == p

        for period, noise, seed in ((12, 0.005, 1), (20, 0.01, 2), (28, 0.01, 3)):
            spec = WalkerSpec(
                body_height=56, body_width=17, period_frames=period, stride_px=37,
                leg_swing_amplitude=34, start_x=36, noise_rate=noise, seed=seed,
            )
            seq, truth = generate(spec, 272, 104, 3 * period + 8)
            background = model_median(seq)
            masks = segment_sequence(seq, background, "auto")
            estimated = estimate_period(width_signal(bounding_boxes(masks)))
            assert abs(estimated - truth.period_frames) <= 1

        with pytest.raises(NoPeriodicity):
            estimate_period(np.full(60, 50.0))


def test_criterion_7_svm_solver(benchmark_run):
    with criterion(7, "KKT within 1e-3 on all trained machines, dual constraints, analytic case"):
        result = benchmark_run.result
        model = result.model
        c = benchmark_run.config.c
        train_vectors = np.array([r.vector for r in result.train])
        train_labels = np.array([r.subject for r in result.train], dtype=object)
        z = np.array([model.normalize(v) for v in train_vectors])
        assert len(model.binaries) == 8 * 7 // 2
        for machine in model.binaries:
            pair = machine.class_pair
            rows = np.flatnonzero((train_labels == pair[0]) | (train_labels == pair[1]))
            y = np.where(train_labels[rows] == pair[0], 1.0, -1.0)
            assert kkt_violation(machine, z[rows], y) <= 1e-3 + 1e-9
            assert abs(machine.coefficients.sum()) <= 1e-6
            assert np.all(machine.coefficients * np.sign(machine.coefficients) <= c + 1e-6)

        machine = train_binary(
            np.array([[0.0], [2.0]]), np.array([-1.0, 1.0]), KernelSpec("linear", 1e6)
        )
        assert abs(machine.decision([1.0])) <= 1e-6


def test_criterion_8_measures():
    with criterion(8, "hand confusion case within 1e-4 and 100 recounted random label sets"):
        truth = ["p"] * 9 + ["n"] * 11
        predicted = ["p"] * 8 + ["n"] + ["p"] * 2 + ["n"] * 9
        cm = evaluate(truth, predicted)
        i = cm.classes.index("p")
        tp = cm.counts[i, i]
        fp = cm.counts[:, i].sum() - tp
        fn = cm.counts[i, :].sum() - tp
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f_measure = 2 * precision * recall / (precision + recall)
        assert abs(precision - 0.8) <= 1e-4
        assert abs(recall - 0.8889) <= 1e-4
        assert abs(f_measure - 0.8421) <= 1e-4

        rng = np.random.default_rng(31)
        names = ["a", "b", "c", "d", "e"]
        for _ in range(100):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 6))
            t = [names[v] for v in rng.integers(0, k, size=n)]
            p = [names[v] for v in rng.integers(0, k, size=n)]
            got = measures(evaluate(t, p))
            classes = sorted(set(t) | set(p))
            accuracy = sum(a == b for a, b in zip(t, p)) / n
            precisions, recalls = [], []
            for cls in classes:
                tp = sum(1 for a, b in zip(t, p) if a == cls and b == cls)
                fp = sum(1 for a, b in zip(t, p) if a != cls and b == cls)
                fn = sum(1 for a, b in zip(t, p) if a == cls and b != cls)
                precisions.append(tp / (tp + fp) if tp + fp else 0.0)
                recalls.append(tp / (tp + fn) if tp + fn else 0.0)
            precision = sum(precisions) / len(classes)
            recall = sum(recalls) / len(classes)
            f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert math.isclose(got["accuracy"], accuracy, abs_tol=1e-12)
            assert math.isclose(got["precision"], precision, abs_tol=1e-12)
            assert math.isclose(got["recall"], recall, abs_tol=1e-12)
            assert math.isclose(got["f_measure"], f, abs_tol=1e-12)


def test_criterion_9_determinism(benchmark_run, tmp_path):
    with criterion(9, "second run reproduces features, model and report byte for byte"):
        rerun_out = tmp_path / "rerun"
        cfg = pipeline.PipelineConfig(
            data_dir=str(benchmark_run.data_dir), out_dir=str(rerun_out)
        )
        pipeline.run_pipeline(cfg)
        for name in ("features.csv", "model.svm", "gallery.csv"):
            first = (benchmark_run.out_dir / name).read_bytes()
            second = (rerun_out / name).read_bytes()
            assert first == second, f"{name} differs between runs"
        normalize = lambda text, out: text.replace(str(out), "OUT")
        first_report = normalize((benchmark_run.out_dir / "report.txt").read_text(),
                                 benchmark_run.out_dir)
        second_report = normalize((rerun_out / "report.txt").read_text(), rerun_out)
        assert first_report == second_report
