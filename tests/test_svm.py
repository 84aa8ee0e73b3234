import dataclasses
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaitlock import pipeline, svm
from gaitlock.imagery import decimal_number
from gaitlock.errors import (
    DimensionMismatch,
    FormatError,
    GaitlockError,
    NonFinite,
    SingleClass,
    TooFewClasses,
    VersionMismatch,
)
from gaitlock.svm import (
    KernelSpec,
    kernel_matrix,
    kkt_violation,
    load_model,
    predict,
    predict_many,
    save_model,
    train_binary,
    train_multiclass,
)

# A decision value, or a strength gap between two max-vote classes, this
# close to zero relative to the magnitude of its terms can change sign when
# the float64 arithmetic runs in another order, as the batched path's does.
EDGE = 1e-9


def reference_predict(model, x):
    """The per-machine vote loop ``predict`` ran before prediction was
    batched, kept as the oracle.

    Returns the label and whether rounding can decide it: when a
    decision value or a max-vote strength gap lies within ``EDGE`` of
    zero, a different summation order may pick another label.
    """
    z = model.normalize(np.ravel(x))
    votes = {cls: 0 for cls in model.classes}
    strength = {cls: 0.0 for cls in model.classes}
    edge, total_scale = False, 0.0
    for machine in model.binaries:
        d = machine.decision(z)
        scale = 1.0 + abs(machine.bias)
        if machine.support_vectors.size:
            k = kernel_matrix(machine.kernel, z[None, :], machine.support_vectors)[0]
            scale += float(np.abs(k) @ np.abs(machine.coefficients))
        edge = edge or abs(d) <= EDGE * scale
        total_scale += scale
        winner = machine.class_pair[0] if d >= 0.0 else machine.class_pair[1]
        votes[winner] += 1
        strength[winner] += abs(d)
    best_votes = max(votes.values())
    tied = [cls for cls in model.classes if votes[cls] == best_votes]
    if len(tied) == 1:
        return tied[0], edge
    best_strength = max(strength[cls] for cls in tied)
    near = [cls for cls in tied if best_strength - strength[cls] <= EDGE * total_scale]
    edge = edge or len(near) > 1
    for cls in tied:
        if strength[cls] == best_strength:
            return cls, edge
    return tied[0], edge


def assert_matches_reference(model, rows):
    got = predict_many(model, rows)
    assert got == [predict(model, row) for row in rows]
    for row, label in zip(rows, got):
        expected, edge = reference_predict(model, row)
        if not edge:
            assert label == expected


def reference_train_binary(x, y, spec, tol=1e-3, max_passes=10, class_pair=("+1", "-1")):
    """The per-machine SMO loop ``train_binary`` ran before machines were
    trained in lockstep, kept as the oracle."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    c = spec.c
    k = kernel_matrix(spec, x, x)
    alpha = np.zeros(n)
    f_free = np.zeros(n)
    snap = 1e-12 * max(1.0, c)
    tau = 1e-12

    def boxed(value):
        if value < snap:
            return 0.0
        if value > c - snap:
            return c
        return value

    for _ in range(max(5000, 500 * max_passes * n)):
        scores = y - f_free
        up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
        if not up.any() or not low.any():
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = int(up_idx[np.argmax(scores[up_idx])])
        if scores[i] - scores[low_idx].min() <= tol:
            break
        cand = low_idx[scores[low_idx] < scores[i]]
        diffs = scores[i] - scores[cand]
        etas = k[i, i] + k[cand, cand] - 2.0 * k[i, cand]
        etas = np.where(etas > tau, etas, tau)
        j = int(cand[np.argmax(diffs * diffs / etas)])

        yi, yj = y[i], y[j]
        s = yi * yj
        ai_old, aj_old = alpha[i], alpha[j]
        if s < 0:
            lo_b = max(0.0, aj_old - ai_old)
            hi_b = min(c, c + aj_old - ai_old)
        else:
            lo_b = max(0.0, ai_old + aj_old - c)
            hi_b = min(c, ai_old + aj_old)
        if lo_b >= hi_b:
            break
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        e_diff = (f_free[i] - yi) - (f_free[j] - yj)
        if eta > tau:
            aj = min(hi_b, max(lo_b, aj_old + yj * e_diff / eta))
        else:
            best_gain, aj = 0.0, aj_old
            for end in (lo_b, hi_b):
                dj = end - aj_old
                gain = dj * (yj * e_diff - 0.5 * dj * eta)
                if gain > best_gain + 1e-15:
                    best_gain, aj = gain, end
            if aj == aj_old:
                break
        aj = boxed(aj)
        ai = boxed(min(c, max(0.0, ai_old + s * (aj_old - aj))))
        if ai == ai_old and aj == aj_old:
            break
        alpha[i], alpha[j] = ai, aj
        f_free += (ai - ai_old) * yi * k[i] + (aj - aj_old) * yj * k[j]

    support = alpha > 0.0
    return svm.BinarySvm(
        x.copy(), np.flatnonzero(support), (alpha * y)[support].copy(),
        reference_bias(y, alpha, f_free, c), spec, class_pair
    )


def reference_bias(y, alpha, f_free, c):
    """The bias of one solved machine as ``reference_train_binary`` takes it."""
    scores = y - f_free
    up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        return float(scores[free].mean())
    if up.any() and low.any():
        return float((scores[up].max() + scores[low].min()) / 2.0)
    return float(scores.mean())


def pair_problems(model, x, labels):
    """Each machine of ``model`` with its normalized training rows and
    +/-1 labels, cut from ``x`` as ``train_multiclass`` cuts them."""
    z = model.normalize(x)
    labels = np.asarray(labels)
    for machine in model.binaries:
        first, second = machine.class_pair
        rows = np.flatnonzero((labels == first) | (labels == second))
        yield machine, z[rows], np.where(labels[rows] == first, 1.0, -1.0)


def assert_same_machine(got, want):
    """Byte equality of everything a model file stores for a machine."""
    assert got.class_pair == want.class_pair
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.support_vectors.shape == want.support_vectors.shape
    assert got.support_vectors.tobytes() == want.support_vectors.tobytes()


XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = ["a", "a", "b", "b"]


def two_clusters(n_per=10, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.7, size=(n_per, 2))
    b = rng.normal(gap, 0.7, size=(n_per, 2))
    x = np.vstack([a, b])
    y = np.array([-1.0] * n_per + [1.0] * n_per)
    return x, y


def _kernel_value(spec, x, y) -> float:
    """k(x, y) of two vectors, through kernel_matrix on one-row arrays."""
    return float(kernel_matrix(spec, np.atleast_2d(x), np.atleast_2d(y))[0, 0])


class TestKernels:
    def test_linear(self):
        assert _kernel_value(KernelSpec("linear", 1.0), (1, 2), (3, 4)) == 11.0

    def test_polynomial(self):
        spec = KernelSpec("poly", 1.0, degree=2)
        assert _kernel_value(spec, (1, 0), (1, 0)) == 4.0  # (1 + 1)^2

    def test_rbf_at_zero_distance(self):
        spec = KernelSpec("rbf", 1.0, sigma=2.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=7)
            assert _kernel_value(spec, x, x) == pytest.approx(1.0)

    def test_rbf_formula(self):
        spec = KernelSpec("rbf", 1.0, sigma=0.5)
        got = _kernel_value(spec, (0.0, 0.0), (1.0, 1.0))
        assert got == pytest.approx(np.exp(-2.0 / (2 * 0.25)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _kernel_value(KernelSpec("linear", 1.0), (1, 2), (1, 2, 3))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("linear", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("poly", 1.0)  # degree missing
        with pytest.raises(ValueError):
            KernelSpec("rbf", 1.0)  # sigma missing
        with pytest.raises(ValueError):
            KernelSpec("linear", 1.0, sigma=2.0)
        with pytest.raises(ValueError):
            KernelSpec("sigmoid", 1.0)
        for degree in (0, 2.5, float("nan")):
            with pytest.raises(ValueError, match="degree must be an integer >= 1"):
                KernelSpec("poly", 1.0, degree=degree)
        assert KernelSpec("poly", 1.0, degree=2.0).degree == 2
        with pytest.raises(ValueError):
            KernelSpec("rbf", 1.0, sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("poly", 1.0, degree=2, sigma=1.0)


class TestTrainBinary:
    def test_two_point_analytic_max_margin(self):
        machine = train_binary(
            np.array([[0.0], [2.0]]), np.array([-1.0, 1.0]), KernelSpec("linear", 1e6)
        )
        assert machine.decision([1.0]) == pytest.approx(0.0, abs=1e-6)
        assert machine.decision([0.0]) == pytest.approx(-1.0, abs=1e-3)
        assert machine.decision([2.0]) == pytest.approx(1.0, abs=1e-3)

    def test_separable_clusters_reach_full_accuracy(self):
        x, y = two_clusters()
        machine = train_binary(x, y, KernelSpec("linear", 10.0))
        predictions = np.sign(machine.decision_many(x))
        assert (predictions == y).all()

    def test_duplicate_point_with_both_labels(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, -1.0])
        machine = train_binary(x, y, KernelSpec("linear", 5.0))
        # the conflicting pair is absorbed at the box bound, KKT-feasibly
        assert kkt_violation(machine, x, y) <= 1e-3
        assert np.all(np.abs(machine.coefficients) <= 5.0 + 1e-9)

    def test_duplicate_rows_at_a_huge_c_keep_both_rows(self, tmp_path):
        """Duplicate rows with both labels make a flat direction, whose gain
        squares no step: at c = 1e300, alone or beside steep machines of one
        stack, the pair still moves to the box bound."""
        x, spec = np.array([[1.0], [1.0], [5.0], [6.0]]), KernelSpec("linear", 1e300)
        machine = train_binary(x[:2], np.array([1.0, -1.0]), spec)
        model = train_multiclass(x, list("abcc"), spec)
        save_model(model, tmp_path / "m.svm")
        back = load_model(tmp_path / "m.svm")
        assert back.kernel == spec
        for flat in (machine, model.binaries[0], back.binaries[0]):
            # both rows are support vectors; a model's pool holds equal rows once
            assert flat.support_vectors.tolist() == [flat.pool[0].tolist()] * 2
            assert flat.coefficients.tolist() == [1e300, -1e300]

    def test_kkt_and_dual_constraints_on_random_problems(self):
        rng = np.random.default_rng(5)
        for kind in ("linear", "rbf", "poly"):
            for _ in range(4):
                n = int(rng.integers(6, 20))
                x = rng.normal(0, 2, size=(n, 3))
                y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
                if np.unique(y).size < 2:
                    y[0] = -y[0]
                if kind == "rbf":
                    spec = KernelSpec(kind, 3.0, sigma=1.5)
                elif kind == "poly":
                    spec = KernelSpec(kind, 3.0, degree=2)
                else:
                    spec = KernelSpec(kind, 3.0)
                machine = train_binary(x, y, spec)
                assert kkt_violation(machine, x, y) <= 1e-3 + 1e-9
                assert abs(machine.coefficients.sum()) <= 1e-6
                assert np.all(np.abs(machine.coefficients) <= 3.0 + 1e-6)
        # every machine of a multi-class model on uneven classes, one of one row
        for spec in (KernelSpec("linear", 3.0), KernelSpec("rbf", 3.0, sigma=1.5),
                     KernelSpec("poly", 3.0, degree=2)):
            sizes = [1] + [int(v) for v in rng.integers(2, 9, size=3)]
            x = rng.normal(0, 2, size=(sum(sizes), 3))
            labels = [f"c{i}" for i, count in enumerate(sizes) for _ in range(count)]
            model = train_multiclass(x, labels, spec)
            for machine, z, y in pair_problems(model, x, labels):
                assert kkt_violation(machine, z, y) <= 1e-3 + 1e-9
                assert abs(machine.coefficients.sum()) <= 1e-6
                assert np.all(np.abs(machine.coefficients) <= 3.0 + 1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train_binary(np.zeros((3, 2)), np.ones(3), KernelSpec("linear", 1.0))

    def test_non_finite_rejected(self):
        x = np.array([[0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(NonFinite):
            train_binary(x, np.array([-1.0, 1.0]), KernelSpec("linear", 1.0))


class TestMulticlass:
    def test_three_classes_make_three_machines(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0], [0.0, 5.0], [0.1, 5.0]])
        labels = ["a", "a", "b", "b", "c", "c"]
        model = train_multiclass(x, labels, KernelSpec("linear", 10.0))
        assert len(model.binaries) == 3
        assert model.classes == ["a", "b", "c"]

    def test_twenty_classes_make_190_machines(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(0, 50, size=(20, 2))
        x = np.repeat(centers, 2, axis=0) + rng.normal(0, 0.1, size=(40, 2))
        labels = [f"s{i:02d}" for i in range(20) for _ in range(2)]
        model = train_multiclass(x, labels, KernelSpec("linear", 10.0))
        assert len(model.binaries) == 20 * 19 // 2

    def test_one_class_rejected(self):
        with pytest.raises(TooFewClasses):
            train_multiclass(np.zeros((3, 2)), ["a", "a", "a"], KernelSpec("linear", 1.0))

    def test_training_set_consistency_on_separable_data(self):
        rng = np.random.default_rng(3)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        x = np.vstack([c + rng.normal(0, 0.4, size=(5, 2)) for c in centers])
        labels = [c for c in "abc" for _ in range(5)]
        model = train_multiclass(x, labels, KernelSpec("rbf", 10.0, sigma=2.0))
        assert predict_many(model, x) == labels

    def test_two_class_vote_equals_decision_sign(self):
        x, y = two_clusters(n_per=6)
        labels = ["neg" if v < 0 else "pos" for v in y]
        model = train_multiclass(x, labels, KernelSpec("linear", 10.0))
        (machine,) = model.binaries
        for row in x:
            d = machine.decision(model.normalize(row))
            expected = machine.class_pair[0] if d >= 0 else machine.class_pair[1]
            assert predict(model, row) == expected

    def test_xor_needs_a_nonlinear_kernel(self):
        linear = train_multiclass(XOR_X, XOR_Y, KernelSpec("linear", 10.0))
        linear_acc = np.mean([predict(linear, r) == t for r, t in zip(XOR_X, XOR_Y)])
        rbf = train_multiclass(XOR_X, XOR_Y, KernelSpec("rbf", 10.0, sigma=0.5))
        rbf_acc = np.mean([predict(rbf, r) == t for r, t in zip(XOR_X, XOR_Y)])
        assert linear_acc <= 0.75
        assert rbf_acc == 1.0

    def test_prediction_invariant_under_feature_rescaling(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, size=(18, 4))
        labels = [("a", "b", "c")[i % 3] for i in range(18)]
        probes = rng.normal(0, 2, size=(10, 4))
        base = train_multiclass(x, labels, KernelSpec("rbf", 5.0, sigma=1.0))
        scaled_x, scaled_probes = x.copy(), probes.copy()
        scaled_x[:, 2] *= 37.5
        scaled_probes[:, 2] *= 37.5
        scaled = train_multiclass(scaled_x, labels, KernelSpec("rbf", 5.0, sigma=1.0))
        assert predict_many(base, probes) == predict_many(scaled, scaled_probes)

    def test_zero_variance_dimension_passes_unscaled(self):
        x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0], [4.0, 7.0]])
        model = train_multiclass(x, ["a", "a", "b", "b"], KernelSpec("linear", 1.0))
        assert model.norm_std[1] == 1.0

    def test_larger_c_does_not_hurt_separable_training_accuracy(self):
        x, y = two_clusters(n_per=8, gap=5.0, seed=2)
        labels = ["n" if v < 0 else "p" for v in y]
        accs = []
        for c in (0.1, 1.0, 10.0, 100.0):
            model = train_multiclass(x, labels, KernelSpec("linear", c))
            accs.append(np.mean([predict(model, r) == t for r, t in zip(x, labels)]))
        assert all(b >= a for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0


class TestPersistence:
    def _model(self):
        rng = np.random.default_rng(4)
        x = np.vstack([
            rng.normal(0, 1, size=(6, 5)),
            rng.normal(6, 1, size=(6, 5)),
            rng.normal(-6, 1, size=(6, 5)),
        ])
        labels = [c for c in "abc" for _ in range(6)]
        return train_multiclass(x, labels, KernelSpec("rbf", 10.0, sigma=2.0))

    def test_round_trip_reproduces_predictions(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.svm"
        save_model(model, path)
        back = load_model(path)
        rng = np.random.default_rng(10)
        probes = rng.normal(0, 5, size=(100, 5))
        assert predict_many(model, probes) == predict_many(back, probes)
        for a, b in zip(model.binaries, back.binaries):
            assert a.bias == b.bias
            assert np.array_equal(a.coefficients, b.coefficients)
            assert np.array_equal(a.support_vectors, b.support_vectors)

    def test_truncated_file(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.svm"
        save_model(model, path)
        text = path.read_text()
        (tmp_path / "cut.svm").write_text(text[: len(text) // 2])
        with pytest.raises(FormatError):
            load_model(tmp_path / "cut.svm")

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "future.svm"
        path.write_text("GAITLOCK-SVM v9\nclasses 0\n")
        with pytest.raises(VersionMismatch):
            load_model(path)

    @pytest.mark.parametrize("pair", ["a zed", "b b"])
    def test_pair_labels_must_be_two_classes(self, tmp_path, pair):
        path = tmp_path / "m.svm"
        path.write_text(_model_text((1, 1, 1)).replace("pair b c", f"pair {pair}"))
        with pytest.raises(FormatError, match=f"pair {pair}"):
            load_model(path)

    def test_foreign_file(self, tmp_path):
        path = tmp_path / "noise.svm"
        path.write_text("hello world\n")
        with pytest.raises(FormatError):
            load_model(path)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(svm.KERNELS), c=st.floats(1e-3, 1e3),
           degree=st.integers(1, 6), sigma=st.floats(1e-2, 1e2))
    def test_every_kernel_round_trips(self, tmp_path_factory, kind, c, degree, sigma):
        params = {"degree": degree, "sigma": sigma}
        spec = KernelSpec(kind, c, **{name: params[name] for name in svm.KERNEL_PARAMS[kind]})
        x = np.array([[0.0, 1.0], [0.5, 1.5], [3.0, 0.0], [3.5, 0.5], [0.0, 4.0], [1.0, 4.0]])
        path = tmp_path_factory.mktemp("kernel") / "m.svm"
        save_model(train_multiclass(x, list("aabbcc"), spec), path)
        back = load_model(path)
        assert back.kernel == spec
        assert all(m.kernel == spec for m in back.binaries)
        save_model(back, path.with_name("again.svm"))
        assert path.with_name("again.svm").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "old, new, record",
        [
            ("kernel linear 1\nbias -1", "kernel linear 2\nbias -1", "'kernel linear 2' differs"),
            ("kernel linear 1\nbias -1", "kernel rbf 1 1\nbias -1", "'kernel rbf 1 1' differs"),
            ("kernel linear 1\nbias 1", "kernel poly 10 2.5\nbias 1", "'kernel poly 10 2.5'"),
            ("kernel linear 1\nbias 1", "kernel poly 10\nbias 1", "'kernel poly 10' needs"),
            ("classes 3\na\nb\n", "classes 3\nb\na\n", "'classes 3' needs"),
            ("classes 3\na\nb\n", "classes 3\na\na\n", "'classes 3' needs"),
            ("classes 3\na\nb\nc\n", "classes 1\na\n", "'classes 1' needs"),
            ("machines 3", "machines 2", "'machines 2' should be 'machines 3'"),
            ("pair a c", "pair b c", "'pair b c' should be 'pair a c'"),
            ("pair a c", "pair a b", "'pair a b' should be 'pair a c'"),
            ("pair a c", "pair c a", "'pair c a' should be 'pair a c'"),
            ("pair a b", "pair a c", "'pair a c' should be 'pair a b'"),
        ],
        ids=["other-c", "other-kind", "fractional-degree", "missing-degree", "unsorted-classes",
             "duplicate-classes", "one-class", "machine-count", "missing-pair", "duplicate-pair",
             "reversed-pair", "out-of-order-pair"],
    )
    def test_model_training_cannot_make_is_rejected(self, tmp_path, old, new, record):
        text = _model_text((1, -1, 1))
        assert text.count(old) >= 1
        path = tmp_path / "m.svm"
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(FormatError, match=f"record {record}"):
            load_model(path)


class TestPool:
    def test_a_gallery_sized_model_round_trips_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, size=(48, 1, 14)) + rng.normal(0, 0.9, size=(48, 8, 14))
        labels = [f"s{i:02d}" for i in range(48) for _ in range(8)]
        model = train_multiclass(x.reshape(-1, 14), labels, KernelSpec("rbf", 10.0, sigma=2.0))
        assert model.pool.shape == (48 * 8, 14)
        path = tmp_path / "m.svm"
        save_model(model, path)
        back = load_model(path)
        save_model(back, tmp_path / "again.svm")
        assert (tmp_path / "again.svm").read_bytes() == path.read_bytes()
        assert all(m.pool is back.pool for m in back.binaries)
        assert back.pool.shape[0] <= 48 * 8
        for a, b in zip(model.binaries, back.binaries):
            assert_same_machine(b, a)

    def test_model_rejects_machines_on_different_pools(self):
        model = train_multiclass(XOR_X, XOR_Y, KernelSpec("linear", 1.0))
        (machine,) = model.binaries
        other = dataclasses.replace(machine, pool=machine.pool.copy())
        with pytest.raises(ValueError, match="share one support-vector pool"):
            svm.SvmModel(["a", "b"], [machine, other], model.norm_mean, model.norm_std)

    def test_train_binary_keeps_its_own_copy_of_x(self):
        x, y = two_clusters()
        machine = train_binary(x, y, KernelSpec("rbf", 10.0, sigma=2.0))
        probes = x + 0.3
        before = machine.decision_many(probes)
        x[:] = 0.0
        assert machine.decision_many(probes).tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "row, problem",
        [("0.25 inf", "holds a non-finite number"), ("nan 2", "holds a non-finite number"),
         ("0.25 1 2", "has wrong arity"), ("0.25", "has wrong arity")],
        ids=["non-finite-value", "non-finite-coef-of-a-known-row", "long-row", "short-row"],
    )
    def test_bad_row_first_in_the_second_machine_names_its_pair(self, tmp_path, row, problem):
        path = tmp_path / "m.svm"
        path.write_text(_model_text((1, -1, 1), (["0.5 2"], ["-0.5 2", row], [])))
        with pytest.raises(FormatError, match=f"a 'vectors' row of pair a c {problem}"):
            load_model(path)

    def test_a_row_repeated_across_machines_is_one_pool_entry(self, tmp_path):
        path = tmp_path / "m.svm"
        path.write_text(_model_text((1, -1, 1), (["0.5 2"], ["-0.5 2", "0.25 3"], ["0.75 2"])))
        model = load_model(path)
        assert model.pool.tolist() == [[2.0], [3.0]]
        assert [m.index.tolist() for m in model.binaries] == [[0], [0, 1], [0]]
        assert [m.support_vectors.tolist() for m in model.binaries] == [[[2.0]], [[2.0], [3.0]],
                                                                        [[2.0]]]
        save_model(model, tmp_path / "again.svm")
        assert (tmp_path / "again.svm").read_bytes() == path.read_bytes()


def reference_save_model(model, path):
    """The join-based writer ``save_model`` was before it wrote one machine
    at a time, kept as the oracle."""
    fmt = svm._fmt
    lines = [f"{svm.MODEL_MAGIC} {svm.MODEL_VERSION}"]
    lines.append(f"classes {len(model.classes)}")
    lines.extend(model.classes)
    lines.append(f"normalization {model.dimension}")
    for m, s in zip(model.norm_mean, model.norm_std):
        lines.append(f"{fmt(m)} {fmt(s)}")
    lines.append(f"machines {len(model.binaries)}")
    kernel = svm._kernel_record(model.kernel)
    text = ["".join(" " + fmt(v) for v in row) for row in model.pool]
    for machine in model.binaries:
        lines.append(f"pair {machine.class_pair[0]} {machine.class_pair[1]}")
        lines.append(kernel)
        lines.append(f"bias {fmt(machine.bias)}")
        lines.append(f"vectors {machine.index.size} {model.dimension}")
        vectors = zip(machine.coefficients.tolist(), machine.index.tolist())
        lines.extend(f"{fmt(coef)}{text[i]}" for coef, i in vectors)
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def reference_load_model(path):
    """The whole-text reader ``load_model`` was before it read one line at
    a time, kept as the oracle, with the rules added since: a file that is
    a non-empty proper prefix of the header line is truncated, counts are read by
    ``decimal_number``, and each error names the file and the line at
    fault, lines numbered as ``str.splitlines`` splits the text."""
    text = Path(path).read_text(encoding="ascii", errors="replace")
    lines = text.splitlines()
    read = 1  # lines read, the header's included
    at = 1  # the line at fault

    def fail(message, kind=FormatError):
        raise kind(f"{path} line {at}: {message}")

    def check_finite(values, record):
        if not np.isfinite(values).all():
            fail(f"{record} holds a non-finite number")

    head = f"{svm.MODEL_MAGIC} {svm.MODEL_VERSION}\n"
    if text and text != head and head.startswith(text):
        fail("model file is truncated")
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != svm.MODEL_MAGIC:
        fail("not a gaitlock SVM model file")
    if header[1] != svm.MODEL_VERSION:
        fail(f"unsupported model version {header[1]!r}", VersionMismatch)

    def take():
        nonlocal read, at
        read += 1
        at = read
        if read > len(lines):
            fail("model file is truncated")
        return lines[read - 1]

    def expect(keyword):
        parts = take().split()
        if not parts or parts[0] != keyword:
            fail(f"expected '{keyword}' record")
        return parts[1:]

    def count(count_str, record):
        try:
            return decimal_number(count_str)
        except ValueError as exc:
            fail(f"{record} has a bad count: {exc}")

    def rows(count_str, record):
        nonlocal read
        n = count(count_str, record)
        taken = lines[read:read + n]
        if len(taken) < n:
            fail(f"{record} announces {n} lines, the file holds {len(taken)}")
        read += n
        return enumerate(taken, start=read - n + 1)

    try:
        (k_str,) = expect("classes")
        classes = [line for _, line in rows(k_str, f"record 'classes {k_str}'")]
        if len(classes) < 2 or classes != sorted(set(classes)):
            fail(f"record 'classes {k_str}' needs 2 or more distinct sorted classes")
        (dim_str,) = expect("normalization")
        mean, std = [], []
        for at, line in rows(dim_str, f"record 'normalization {dim_str}'"):
            fields = line.split()
            if len(fields) != 2:
                fail(f"normalization record '{' '.join(fields)}' needs a mean and a std")
            m_str, s_str = fields
            mean.append(float(m_str))
            std.append(float(s_str))
            if not (np.isfinite(mean[-1]) and 0.0 < std[-1] < np.inf):
                fail(f"normalization record '{m_str} {s_str}' needs a finite mean and std > 0")
        dim = len(mean)
        mean, std = np.array(mean), np.array(std)
        (m_count_str,) = expect("machines")
        n_pairs = len(classes) * (len(classes) - 1) // 2
        if count(m_count_str, f"record 'machines {m_count_str}'") != n_pairs:
            fail(f"record 'machines {m_count_str}' should be 'machines {n_pairs}'")
        machines, pool, slot = [], [], {}
        for pair in itertools.combinations(classes, 2):
            labels = expect("pair")
            if labels != list(pair):
                want = " ".join(pair)
                fail(f"record 'pair {' '.join(labels)}' should be 'pair {want}'")
            kparts = expect("kernel")
            record = f"record 'kernel {' '.join(kparts)}'"
            if not machines:
                first_kernel = kparts
                names = svm.KERNEL_PARAMS.get(kparts[0]) if kparts else None
                if names is None or len(kparts) != 2 + len(names):
                    fail(f"{record} needs a kernel kind, c and its parameters")
                try:
                    values = [float(v) for v in kparts[1:]]
                    check_finite(values, record)
                    spec = KernelSpec(kparts[0], values[0], **dict(zip(names, values[1:])))
                except ValueError as exc:
                    fail(f"{record}: {exc}")
            elif kparts != first_kernel:
                fail(f"{record} differs from the model's first kernel record")
            (bias_str,) = expect("bias")
            of_pair = f"of pair {pair[0]} {pair[1]}"
            check_finite([float(bias_str)], f"record 'bias {bias_str}' {of_pair}")
            n_sv_str, sv_dim_str = expect("vectors")
            record = f"record 'vectors {n_sv_str} {sv_dim_str}' {of_pair}"
            if count(sv_dim_str, record) != dim:
                fail("support vector dimension differs from normalization")
            coefs, index = {}, []
            for at, line in rows(n_sv_str, record):
                parts = line.split(maxsplit=1)
                text = parts[1] if len(parts) == 2 else ""
                if text not in slot:
                    values = text.split()
                    if not parts or len(values) != dim:
                        fail(f"a 'vectors' row {of_pair} has wrong arity")
                    slot[text] = len(pool)
                    pool.append([float(v) for v in values])
                    check_finite(pool[-1], f"a 'vectors' row {of_pair}")
                coefs[at] = float(parts[0])
                index.append(slot[text])
            for at, coef in coefs.items():  # the coefficients are checked last
                check_finite([coef], f"a 'vectors' row {of_pair}")
            coefs = np.array(list(coefs.values()), dtype=float)
            machines.append((np.array(index, dtype=np.intp), coefs, float(bias_str), spec, pair))
        if take() != "end":
            fail("missing end record")
    except (ValueError, IndexError) as exc:
        fail(f"malformed record: {exc}")
    pool = np.array(pool, dtype=float).reshape(len(pool), dim)
    binaries = [svm.BinarySvm(pool, *machine) for machine in machines]
    return svm.SvmModel(classes=classes, binaries=binaries, norm_mean=mean, norm_std=std)


def read_outcome(reader, path):
    """Everything a loaded model holds, as bytes, or the error's type and message."""
    try:
        model = reader(path)
    except GaitlockError as exc:
        return type(exc), str(exc)
    machines = [(m.class_pair, m.kernel, np.float64(m.bias).tobytes(), m.index.tobytes(),
                 m.coefficients.tobytes()) for m in model.binaries]
    return (model.classes, model.norm_mean.tobytes(), model.norm_std.tobytes(),
            model.pool.shape, model.pool.tobytes(), machines)


@st.composite
def trained_models(draw):
    """Models of 2-6 classes under every kernel. Rows repeat within and
    across classes, and a small c puts coefficients on the box bound."""
    k = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(svm.KERNELS))
    params = {"degree": draw(st.integers(1, 3)), "sigma": draw(st.sampled_from((0.5, 2.0)))}
    c = draw(st.sampled_from((1e-3, 0.05, 1.0, 100.0)))
    spec = KernelSpec(kind, c, **{name: params[name] for name in svm.KERNEL_PARAMS[kind]})
    per = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.normal(0.0, 2.0, size=(draw(st.integers(1, k * per)), draw(st.integers(1, 4))))
    x = distinct[rng.integers(0, len(distinct), size=k * per)]
    return train_multiclass(x, [f"c{i}" for i in range(k) for _ in range(per)], spec)


MODEL_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("crlf", "cr", "insert", "drop-final-newline", "truncate")),
        st.floats(0.0, 1.0),
        st.sampled_from((b"\x0b", b"\x0c", b"\x1c", b"\x0b\n", b"\xe9", b"\xff\xfe",
                         "ë".encode(), b"\r", b"\x85")),
    ),
    max_size=4,
)


def mutate(data: bytes, mutations) -> bytes:
    """Apply ``(kind, where, payload)`` edits; ``where`` in [0, 1] picks a
    byte offset or, for line ends, a share of the lines."""
    for kind, where, payload in mutations:
        at = round(where * len(data))
        if kind in ("crlf", "cr"):
            lines = data.split(b"\n")
            cut = round(where * (len(lines) - 1))
            end = b"\r\n" if kind == "crlf" else b"\r"
            data = b"\n".join(lines[:cut]) + (b"\n" if cut else b"") + end.join(lines[cut:])
        elif kind == "insert":
            data = data[:at] + payload + data[at:]
        elif kind == "drop-final-newline":
            data = data.removesuffix(b"\n")
        else:
            data = data[:at]
    return data


def three_class_model():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, size=(9, 3)) + np.repeat(np.eye(3) * 4, 3, axis=0)
    labels = [c for c in "abc" for _ in range(3)]
    return train_multiclass(x, labels, KernelSpec("rbf", 1.0, sigma=2.0))


class TestStreamedModelFile:
    @settings(max_examples=60, deadline=None)
    @given(trained_models())
    def test_streamed_writer_matches_the_joined_one(self, tmp_path_factory, model):
        out = tmp_path_factory.mktemp("writer")
        save_model(model, out / "streamed.svm")
        reference_save_model(model, out / "joined.svm")
        assert (out / "streamed.svm").read_bytes() == (out / "joined.svm").read_bytes()

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(-0.0)
    @example(5e-324)
    @example(0.1)
    def test_percent_format_writes_what_format_writes(self, value):
        assert "%.17g" % value == svm._fmt(value)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(("trained", "hand-written")), MODEL_MUTATIONS)
    @example("trained", [("crlf", 0.0, b"")])
    @example("trained", [("cr", 0.5, b"")])
    @example("hand-written", [("insert", 0.3, b"\x0b"), ("insert", 0.6, b"\x1c")])
    @example("hand-written", [("insert", 0.5, b"\x0c\n")])
    @example("trained", [("drop-final-newline", 0.0, b"")])
    @example("trained", [("insert", 0.02, b"\xe9")])
    @example("trained", [("truncate", 0.5, b"")])
    def test_streamed_reader_matches_the_whole_text_one(self, tmp_path_factory, source,
                                                         mutations):
        path = tmp_path_factory.mktemp("reader") / "m.svm"
        if source == "trained":
            save_model(three_class_model(), path)
        else:
            path.write_text(_model_text((1, -1, 1), (["0.5 2"], ["-0.5 2", "0.25 3"], ["0.75 2"])))
        path.write_bytes(mutate(path.read_bytes(), mutations))
        assert read_outcome(load_model, path) == read_outcome(reference_load_model, path)

    def test_every_cut_of_a_saved_file_is_rejected(self, tmp_path):
        """A write stopped at any byte leaves a file that fails to load
        with a format error; a cut inside the header line, even before
        its version, reads as a truncated model file."""
        save_model(three_class_model(), tmp_path / "m.svm")
        data = (tmp_path / "m.svm").read_bytes()
        header = len(b"GAITLOCK-SVM v1\n")
        cut = tmp_path / "cut.svm"
        for size in range(len(data) - 1):  # all but the final newline
            cut.write_bytes(data[:size])
            problem = r" line \d+: "
            if 1 <= size <= header:  # the header line, cut or whole, and nothing after it
                problem = f" line {1 if size < header else 2}: model file is truncated$"
            with pytest.raises(FormatError, match="^" + re.escape(str(cut)) + problem):
                load_model(cut)

    def test_a_write_stopped_by_a_class_name_leaves_a_rejected_file(self, tmp_path):
        model = three_class_model()
        model.classes[1] = "bë"
        with pytest.raises(UnicodeEncodeError):
            save_model(model, tmp_path / "m.svm")
        with pytest.raises(FormatError, match="'classes 3' announces 3 lines, the file holds 1"):
            load_model(tmp_path / "m.svm")


def test_model_io_memory_is_bounded(tmp_path):
    """Saving and loading a 1,128-machine model each allocate at most a
    quarter of the file's size: one machine is held at a time, never the
    file's text."""
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, size=(48, 1, 14)) + rng.normal(0, 0.9, size=(48, 8, 14))
    labels = [f"s{i:02d}" for i in range(48) for _ in range(8)]
    model = train_multiclass(x.reshape(-1, 14), labels, KernelSpec("rbf", 10.0, sigma=2.0))
    assert len(model.binaries) == 1128
    path = tmp_path / "m.svm"
    peaks = []
    for step in (lambda: save_model(model, path), lambda: load_model(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert max(peaks) <= size / 4, [peak / size for peak in peaks]


def test_training_memory_is_bounded():
    """Training the 1,128 machines of the benchmark's seed-0 gallery split
    allocates at most 3.25 times their stacked kernel (1128 x 12 x 12
    float64, 1.30 MB): each kernel is built and transformed in its place
    in the stack, and the stack is gone before the machines are read back."""
    rng = np.random.default_rng(0)  # the draws of the seed-0 gallery features CSV
    centres = rng.standard_normal((48, 14))
    rows = [
        pipeline.FeatureRow(f"subj{s:02d}", f"seq{q}", vector)
        for s in range(48)
        for q, vector in enumerate(centres[s] + 0.9 * rng.standard_normal((8, 14)))
    ]
    train, _ = pipeline.split_rows(rows, 0.75, 0)
    x, labels = pipeline.feature_matrix(train), [r.subject for r in train]
    spec = KernelSpec("rbf", 10.0, sigma=2.0)
    tracemalloc.start()
    try:
        model = train_multiclass(x, labels, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.binaries) == 1128
    stack = 1128 * 12 * 12 * 8
    assert peak <= 3.25 * stack, peak / stack


def test_predict_dimension_mismatch():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [4.0, 4.0]])
    model = train_multiclass(x, ["a", "a", "b", "b"], KernelSpec("linear", 1.0))
    with pytest.raises(DimensionMismatch):
        predict(model, [1.0, 2.0, 3.0])


KERNEL_CASES = (
    ("linear", {}),
    ("poly", {"degree": 1}),
    ("poly", {"degree": 3}),
    ("rbf", {"sigma": 0.5}),
    ("rbf", {"sigma": 2.0}),
)


@st.composite
def problems(draw):
    """Small multi-class problems. Rounding makes duplicate rows, across
    classes too; probes include the midpoint of every two training rows,
    where the votes split into ties."""
    per_class = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    dim = draw(st.integers(1, 4))
    decimals = draw(st.sampled_from((0, 1, 3)))
    values = st.floats(-3.0, 3.0)
    x = draw(arrays(np.float64, (sum(per_class), dim), elements=values, fill=st.nothing()))
    x = x.round(decimals)
    labels = [f"c{i}" for i, count in enumerate(per_class) for _ in range(count)]
    probes = draw(arrays(np.float64, (draw(st.integers(1, 6)), dim), elements=values,
                         fill=st.nothing()))
    kind, params = draw(st.sampled_from(KERNEL_CASES))
    spec = KernelSpec(kind, draw(st.sampled_from((1e-3, 0.1, 1.0, 10.0))), **params)
    i, j = np.triu_indices(len(x), 1)
    return x, labels, spec, np.vstack([x, probes.round(decimals), (x[i] + x[j]) / 2.0])


def bincount_decisions(model, z):
    """The decision sums ``predict_many`` made before the slot layout, kept
    as the oracle: every support vector in machine order with its owning
    machine, and per row one weighted ``bincount``, which adds each
    machine's terms from 0.0 in support-vector order."""
    n_machines = len(model.binaries)
    index = np.concatenate([m.index for m in model.binaries])
    owner = np.repeat(np.arange(n_machines), [m.index.size for m in model.binaries])
    coef = np.concatenate([m.coefficients for m in model.binaries])
    biases = np.array([m.bias for m in model.binaries])
    out = np.empty((len(z), n_machines))
    for d, row in zip(out, z):
        k = kernel_matrix(model.kernel, row[None, :], model.pool)[0]
        d[:] = biases + np.bincount(owner, weights=k[index] * coef, minlength=n_machines)
    return out


def decision_values(model, z):
    """``svm._decision_values`` as a (rows, machines) array in machine order."""
    place = model._compiled[0]
    rows = [d[place] for d in svm._decision_values(model, z)]
    return np.array(rows).reshape(len(z), len(model.binaries))


def bincount_vote(model, d):
    """The vote ``predict_many`` took before it skipped the strength sums
    of a unique winner."""
    first, second = np.triu_indices(len(model.classes), 1)
    winner = np.where(d >= 0.0, first, second)
    votes = np.bincount(winner, minlength=len(model.classes))
    strength = np.bincount(winner, weights=np.abs(d), minlength=len(model.classes))
    return model.classes[np.argmax(np.where(votes == votes.max(), strength, -np.inf))]


def assert_same_bits(got, want):
    """Bit-equal float arrays, where any NaN equals any NaN."""
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), (got, want)


@st.composite
def built_models(draw):
    """Models put together from machines, not trained: 2 to 6 classes, so
    one to 15 machines; each machine has 0 to 9 support vectors of a shared
    pool, repeats allowed, with coefficients of either sign. Poly kernels
    of degree 200 and 201 overflow to +-inf on most pool rows, so sums meet
    inf - inf. Probe counts start at 0."""
    n_classes = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 3))
    values = st.floats(-4.0, 4.0)
    pool = draw(arrays(np.float64, (draw(st.integers(1, 8)), dim), elements=values))
    kind, params = draw(st.sampled_from(
        KERNEL_CASES + (("poly", {"degree": 200}), ("poly", {"degree": 201}))))
    machines = []
    for _ in range(n_classes * (n_classes - 1) // 2):
        size = draw(st.integers(0, 9))
        index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
        coef = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
        machines.append((index, coef, draw(st.floats(-2.0, 2.0))))
    probes = draw(arrays(np.float64, (draw(st.integers(0, 5)), dim), elements=values))
    return n_classes, pool, (kind, params), machines, probes


def model_from(n_classes, pool, kernel, machines):
    classes = [f"c{i}" for i in range(n_classes)]
    spec = KernelSpec(kernel[0], 1.0, **kernel[1])
    binaries = [
        svm.BinarySvm(pool, np.array(index, dtype=np.intp), np.array(coef, dtype=float),
                      bias, spec, pair)
        for (index, coef, bias), pair in zip(machines, itertools.combinations(classes, 2))
    ]
    dim = pool.shape[1]
    return svm.SvmModel(classes, binaries, np.zeros(dim), np.ones(dim))


def _model_text(biases, vectors=((), (), ())):
    """A hand-written 3-class, 1-D linear model; ``vectors`` holds each
    machine's ``coef value`` rows."""
    lines = ["GAITLOCK-SVM v1", "classes 3", "a", "b", "c", "normalization 1", "0 1",
             "machines 3"]
    pairs = (("a", "b"), ("a", "c"), ("b", "c"))
    for (first, second), bias, rows in zip(pairs, biases, vectors):
        lines += [f"pair {first} {second}", "kernel linear 1", f"bias {bias}",
                  f"vectors {len(rows)} 1", *rows]
    return "\n".join(lines + ["end", ""])


class TestPredictMany:
    @settings(max_examples=120, deadline=None)
    @given(problems())
    def test_matches_the_per_machine_loop(self, problem):
        x, labels, spec, rows = problem
        model = train_multiclass(x, labels, spec)
        assert_matches_reference(model, rows)
        want = bincount_decisions(model, model.normalize(rows))
        assert_same_bits(decision_values(model, model.normalize(rows)), want)
        assert predict_many(model, rows) == [bincount_vote(model, d) for d in want]

    @pytest.mark.parametrize(
        "biases, expected",
        [
            ((1, 1, -1), "a"),  # two votes for a
            ((-1, -1, 1), "b"),  # two votes for b
            ((0.5, -2, 1), "c"),  # one vote each: largest strength
            ((1, -1, 1), "a"),  # one vote each, equal strength: class order
            ((0, -0.0, 0), "a"),  # d = 0 votes for the first class of the pair
        ],
    )
    def test_machines_without_vectors_vote_by_bias(self, tmp_path, biases, expected):
        path = tmp_path / "m.svm"
        path.write_text(_model_text(biases))
        model = load_model(path)
        assert [m.support_vectors.shape for m in model.binaries] == [(0, 1)] * 3
        assert predict(model, [0.3]) == expected
        assert predict_many(model, [[0.3], [-7.0]]) == [expected, expected]

    def test_one_kernel_evaluation_per_probe(self, tmp_path, monkeypatch):
        """Each probe's kernel row is one evaluation against the pool on the
        compiled pool norms, bit-equal to ``kernel_matrix`` of the probe."""
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(3.0 * i, 1.0, size=(5, 4)) for i in range(4)])
        labels = [c for c in "abcd" for _ in range(5)]
        probes = rng.normal(4.0, 5.0, size=(25, 4))
        specs = (KernelSpec("rbf", 10.0, sigma=2.0), KernelSpec("linear", 10.0),
                 KernelSpec("poly", 10.0, degree=3))
        inner = svm._kernel_from_dots
        for spec in specs:
            model = train_multiclass(x, labels, spec)
            rows = []

            def recording(*args):
                rows.append(inner(*args))
                return rows[-1].copy()

            monkeypatch.setattr(svm, "_kernel_from_dots", recording)
            monkeypatch.setattr(svm, "kernel_matrix", lambda *a: pytest.fail("kernel_matrix"))
            predict_many(model, probes)
            monkeypatch.undo()
            assert [k.shape for k in rows] == [(1, len(model.pool))] * len(probes)
            for z, k in zip(model.normalize(probes), rows):
                assert k.tobytes() == kernel_matrix(spec, z[None, :], model.pool).tobytes()
            assert_matches_reference(model, probes)

    def test_machines_under_different_kernels_are_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(3.0 * i, 1.0, size=(5, 4)) for i in range(4)])
        labels = [c for c in "abcd" for _ in range(5)]
        save_model(train_multiclass(x, labels, KernelSpec("rbf", 10.0, sigma=2.0)),
                   tmp_path / "m.svm")
        # hand-edit the file so the six machines use three kernel records
        records = iter(("kernel linear 10", "kernel poly 10 2", "kernel rbf 10 2") * 2)
        lines = [next(records) if ln.startswith("kernel ") else ln
                 for ln in (tmp_path / "m.svm").read_text().splitlines()]
        (tmp_path / "edited.svm").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="record 'kernel poly 10 2' differs"):
            load_model(tmp_path / "edited.svm")

    @settings(max_examples=80, deadline=None)
    @given(problems(), st.data())
    def test_one_probe_and_batch_calls_agree_before_and_after_compiling(
        self, tmp_path_factory, problem, data
    ):
        x, labels, spec, rows = problem
        trained = train_multiclass(x, labels, spec)
        path = tmp_path_factory.mktemp("model") / "m.svm"
        save_model(trained, path)
        loaded = load_model(path)
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from((0, 1)),
                      st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=8)),
            min_size=1, max_size=8))
        # each model's first label for a row; the two models' pools differ in
        # layout, so they need agree only where rounding cannot decide a label,
        # which assert_matches_reference checks
        seen = ({}, {})
        for which, picked in calls:
            got = predict_many((trained, loaded)[which], rows[picked])
            for i, label in zip(picked, got):
                assert seen[which].setdefault(i, label) == label
        for which, model in enumerate((trained, loaded)):
            got = predict_many(model, rows)
            assert all(seen[which].get(i, label) == label for i, label in enumerate(got))
            assert_matches_reference(model, rows)

    def test_later_calls_reuse_the_arrays_the_first_call_built(self, tmp_path):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(3.0 * i, 1.0, size=(5, 4)) for i in range(4)])
        model = train_multiclass(x, [c for c in "abcd" for _ in range(5)],
                                 KernelSpec("rbf", 10.0, sigma=2.0))
        save_model(model, tmp_path / "m.svm")
        probes = rng.normal(4.0, 5.0, size=(6, 4))
        for model in (model, load_model(tmp_path / "m.svm")):
            assert "_compiled" not in vars(model)  # nothing is built before a prediction
            first = predict_many(model, probes[:1])
            built = model._compiled
            for machine in model.binaries:  # a rebuild from the machines would now fail
                machine.index = machine.coefficients = machine.bias = None
            assert predict_many(model, probes)[:1] == first
            assert predict(model, probes[3]) == predict_many(model, probes)[3]
            assert all(a is b for a, b in zip(model._compiled, built, strict=True))

    @pytest.mark.parametrize("row", [-1, 2])
    def test_support_vector_outside_the_pool_rejected(self, row):
        machine = ([0, row], [1.0, 1.0], 0.0)
        model = model_from(2, np.array([[1.0], [2.0]]), ("linear", {}), [machine])
        with pytest.raises(IndexError, match="outside the pool"):
            predict(model, [0.0])

    def test_non_finite_probe_rejected(self):
        model = train_multiclass(XOR_X, XOR_Y, KernelSpec("rbf", 10.0, sigma=0.5))
        with pytest.raises(NonFinite):
            predict(model, [np.nan, 0.0])
        with pytest.raises(NonFinite):
            predict_many(model, [[0.0, 0.0], [np.inf, 1.0]])

    @settings(max_examples=200, deadline=None)
    @given(built_models())
    @example((2, np.array([[1.0], [-2.0]]), ("rbf", {"sigma": 1.0}),
              [([1, 0, 1], [0.5, -1.0, 0.25], 0.1)], np.array([[0.5], [3.0]])))
    @example((3, np.array([[1.0, 2.0]]), ("linear", {}),
              [([], [], -0.5), ([0, 0], [1.0, -3.0], 0.0), ([0], [2.0], 1.0)],
              np.array([[1.0, -1.0]])))
    @example((3, np.array([[3.0], [-3.0]]), ("poly", {"degree": 201}),
              [([0, 1], [1.0, 1.0], 0.0), ([0, 0], [1.0, -1.0], 0.0), ([1], [0.0], 0.0)],
              np.array([[4.0], [-4.0]])))
    @example((4, np.array([[0.0]]), ("linear", {}), [([0], [1.0], 0.0)] * 6,
              np.empty((0, 1))))
    def test_slot_sums_equal_the_bincount_sums(self, built):
        """Decision values are bit-equal to the per-machine ``bincount``
        sums, and the labels to its vote: two-class models, machines
        without support vectors, uneven machine sizes, poly kernels that
        overflow to inf and empty probe arrays alike."""
        n_classes, pool, kernel, machines, probes = built
        model = model_from(n_classes, pool, kernel, machines)
        with np.errstate(over="ignore", invalid="ignore"):
            want = bincount_decisions(model, model.normalize(probes))
            got = decision_values(model, model.normalize(probes))
            labels = predict_many(model, probes)
        assert_same_bits(got, want)
        assert labels == [bincount_vote(model, d) for d in want]  # [] for no probes


@st.composite
def training_problems(draw):
    """Uneven classes of 1 to 8 rows. Integer-grid rows repeat within and
    across classes, which makes the flat-direction steps."""
    per_class = draw(st.lists(st.integers(1, 8), min_size=2, max_size=6))
    shape = (sum(per_class), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        x = draw(arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
    else:
        x = draw(arrays(np.float64, shape, elements=st.floats(-3.0, 3.0), fill=st.nothing()))
    labels = [f"c{i}" for i, count in enumerate(per_class) for _ in range(count)]
    kind, params = draw(st.sampled_from(KERNEL_CASES))
    return x, labels, KernelSpec(kind, draw(st.sampled_from((1e-3, 1.0, 10.0))), **params)


@st.composite
def overflowing_problems(draw):
    """``training_problems`` under c up to 1e300, and half of them under
    poly kernels of degree up to 400, many past 100, whose kernels or
    scores can overflow float64."""
    x, labels, spec = draw(training_problems())
    c = draw(st.floats(1e-3, 1e300))
    if draw(st.booleans()):
        degree = draw(st.integers(1, 400) | st.integers(100, 400))
        return x, labels, KernelSpec("poly", c, degree=degree)
    return x, labels, dataclasses.replace(spec, c=c)


class TestLockstepTraining:
    @settings(max_examples=100, deadline=None)
    @given(training_problems())
    def test_every_machine_matches_the_per_machine_loop(self, problem):
        x, labels, spec = problem
        model = train_multiclass(x, labels, spec)
        for machine, z, y in pair_problems(model, x, labels):
            want = reference_train_binary(z, y, spec, class_pair=machine.class_pair)
            assert_same_machine(machine, want)
            assert_same_machine(train_binary(z, y, spec, class_pair=machine.class_pair), want)

    def test_each_machine_spends_its_own_budget(self):
        # with a gap that cannot close, the machines keep moving until their
        # budgets run out: 5000, 6500 and 5500 iterations for 8, 13 and 11 rows
        x = np.random.default_rng(8).normal(size=(16, 2))
        labels = ["a"] * 5 + ["b"] * 3 + ["c"] * 8
        spec = KernelSpec("rbf", 1.0, sigma=1.0)
        model = train_multiclass(x, labels, spec, tol=1e-300, max_passes=1)
        for machine, z, y in pair_problems(model, x, labels):
            want = reference_train_binary(
                z, y, spec, tol=1e-300, max_passes=1, class_pair=machine.class_pair
            )
            assert_same_machine(machine, want)

    @pytest.mark.parametrize("stack_bytes", [1, 8 * 9 * 9 * 2])
    def test_batches_match_one_stack(self, monkeypatch, stack_bytes):
        rng = np.random.default_rng(11)
        sizes = (1, 4, 2, 5, 3)
        x = rng.integers(-2, 3, size=(sum(sizes), 3)).astype(float)
        labels = [f"c{i}" for i, count in enumerate(sizes) for _ in range(count)]
        spec = KernelSpec("rbf", 1.0, sigma=1.0)
        whole = train_multiclass(x, labels, spec)
        # one machine per batch, or two of at most 9 rows
        monkeypatch.setattr(svm, "_STACK_BYTES", stack_bytes)
        for got, want in zip(train_multiclass(x, labels, spec).binaries, whole.binaries):
            assert_same_machine(got, want)

    @pytest.mark.parametrize("chunk_bytes", [1, 8 * 13 * 13 * 2])
    @pytest.mark.parametrize("kind, params", KERNEL_CASES)
    def test_each_stacked_kernel_is_its_machines_kernel_matrix(
        self, monkeypatch, kind, params, chunk_bytes
    ):
        # uneven classes pad the machines to the largest pair of 13 rows; the
        # kernels are built one machine per chunk, or two. Pairs of 12 and 13
        # rows of 14 columns are where a general product rounds unlike the
        # symmetric one on some BLAS kernels.
        rng = np.random.default_rng(5)
        sizes = (1, 5, 2, 7, 3, 6)
        x = rng.normal(size=(sum(sizes), 14))
        labels = [f"c{i}" for i, count in enumerate(sizes) for _ in range(count)]
        spec = KernelSpec(kind, 1.0, **params)
        stacks = []
        lockstep = svm._smo_lockstep

        def recording(k, y, *args):
            stacks.append((k.copy(), y.copy()))
            return lockstep(k, y, *args)

        monkeypatch.setattr(svm, "_smo_lockstep", recording)
        monkeypatch.setattr(svm, "_CHUNK_BYTES", chunk_bytes)
        model = train_multiclass(x, labels, spec)
        ((k, y),) = stacks
        assert k.shape == (15, 13, 13)
        for m, (_, z, want_y) in enumerate(pair_problems(model, x, labels)):
            n = want_y.size
            assert y[m, :n].tobytes() == want_y.tobytes()
            assert not y[m, n:].any()
            assert k[m, :n, :n].tobytes() == kernel_matrix(spec, z, z).tobytes()

    def test_non_positive_tol_rejected(self):
        with pytest.raises(ValueError):
            train_multiclass(XOR_X, XOR_Y, KernelSpec("linear", 1.0), tol=0.0)
        with pytest.raises(ValueError):
            train_binary(XOR_X, [1, 1, -1, -1], KernelSpec("linear", 1.0), tol=-1.0)

    @pytest.mark.parametrize("per_class, sigma", [((150, 150), 0.5), ((70, 70, 70, 6), 0.1)])
    def test_free_vectors_past_8_and_128_sum_in_the_per_machine_order(self, per_class, sigma):
        # numpy adds up to 8 values one by one, up to 128 in eight running
        # sums and more by halves; a grouped mean row must keep each order.
        # Four classes make machines of 76 and 140 rows, three of each size,
        # and at sigma 0.1 every row is a free vector
        rng = np.random.default_rng(3)
        x = rng.normal(size=(sum(per_class), 3))
        labels = [f"c{i}" for i, count in enumerate(per_class) for _ in range(count)]
        spec = KernelSpec("rbf", 100.0, sigma=sigma)
        model = train_multiclass(x, labels, spec)
        free = []
        for machine, z, y in pair_problems(model, x, labels):
            assert_same_machine(machine, reference_train_binary(
                z, y, spec, class_pair=machine.class_pair))
            free.append(np.count_nonzero(np.abs(machine.coefficients) < spec.c))
        assert min(free) > 8 and max(free) > 128, free
        if len(free) > 1:
            assert len(set(free)) < len(free), free  # some count covers two machines

    @pytest.mark.parametrize("degree", [200, 201])
    def test_overflowing_poly_kernels_are_refused(self, degree):
        # the kernel overflows to +-inf between the 1000-sized rows of the
        # first three machines; the fourth's rows alone are finite, but the
        # whole stack is refused
        x = np.array([[0.1], [-0.1], [0.0], [0.3], [-0.2], [1000.0], [-1000.0]])
        problems = [((0, 2, 3, 5), (-1, 1, 1, -1)), ((0, 1, 3, 5), (-1, 1, 1, -1)),
                    ((1, 2, 4, 6), (-1, 1, 1, -1)), ((0, 1, 4), (1, -1, -1))]
        rows = np.zeros((len(problems), 4), dtype=np.intp)
        labels = np.zeros((len(problems), 4))
        for m, (r, y) in enumerate(problems):
            rows[m, : len(r)], labels[m, : len(y)] = r, y
        spec = KernelSpec("poly", 10.0, degree=degree)
        message = f"^kernel poly 10 {degree} overflows float64$"
        with pytest.raises(NonFinite, match=message):
            svm._train_machines(spec, x, rows, labels, [("a", "b")] * 4, 1e-3, 10)
        with pytest.raises(NonFinite, match=message):
            train_binary([[0.1], [0.0], [-1000.0]], [-1, 1, -1], spec)

    def test_non_finite_scores_are_refused_naming_the_pair(self):
        # written by hand: a score overflow behind a finite kernel was not
        # found by training. Padding slots (label 0) are not read
        y = np.array([[1.0, -1.0, 0.0], [1.0, -1.0, -1.0]])
        f_free = np.array([[0.5, -0.5, np.nan], [np.inf, 0.0, 0.0]])
        with pytest.raises(NonFinite, match="^kernel linear 1 overflows float64 on pair a c$"):
            svm._machines(np.zeros((3, 1)), np.tile(np.arange(3), (2, 1)), y, np.zeros(y.shape),
                          f_free, KernelSpec("linear", 1.0), [("a", "b"), ("a", "c")])
        (machine,) = svm._machines(np.zeros((3, 1)), np.arange(3)[None], y[:1],
                                   np.zeros((1, 3)), f_free[:1], KernelSpec("linear", 1.0),
                                   [("a", "b")])
        assert machine.bias == 0.0

    @settings(max_examples=100, deadline=None)
    @given(overflowing_problems())
    def test_training_refuses_or_makes_a_model_that_round_trips(self, tmp_path_factory,
                                                                problem):
        x, labels, spec = problem
        try:
            model = train_multiclass(x, labels, spec)
        except NonFinite as exc:
            assert str(exc).startswith(f"{svm._kernel_record(spec)} overflows float64"), exc
            return
        path = tmp_path_factory.mktemp("model") / "model.svm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kernel == spec
        for got, want in zip(loaded.binaries, model.binaries, strict=True):
            assert_same_machine(got, want)

    def test_machines_without_free_vectors_take_the_band_midpoint(self):
        # c = 0.001 puts every alpha of some of these machines on a bound
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 2))
        labels = ["a"] * 4 + ["b"] * 5 + ["c"] * 3
        spec = KernelSpec("linear", 1e-3)
        model = train_multiclass(x, labels, spec)
        free = []
        for machine, z, y in pair_problems(model, x, labels):
            assert_same_machine(machine, reference_train_binary(
                z, y, spec, class_pair=machine.class_pair))
            free.append(np.count_nonzero(np.abs(machine.coefficients) < spec.c))
        assert 0 in free and max(free) > 0, free


def test_training_and_the_histogram_background_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from gaitlock.background import model_histogram",
        "from gaitlock.imagery import FrameSequence",
        "from gaitlock.svm import KernelSpec, train_binary",
        "train_binary([[0.0], [1.0]], [-1, 1], KernelSpec('linear', 1.0))",
        "model_histogram(FrameSequence(np.arange(24, dtype=np.uint8).reshape(2, 3, 4)))",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(svm.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    ran = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert ran.stdout == "False\n"
