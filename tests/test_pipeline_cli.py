import argparse
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlock import pipeline, svm
from gaitlock.background import check_threshold, load_background, save_background
from gaitlock.cli import build_parser, main
from gaitlock.errors import BadName, DecodeError, FormatError, StageError, TooFewSequences
from gaitlock.features import FEATURE_NAMES
from gaitlock.imagery import WalkBuffers, read_pnm, save_sequence, write_pgm
from gaitlock.synthgait import WalkerSpec, generate

from test_background import RASTER_COMMENTS, write_one_row_pgm
from test_segmentation import reference_segment

SUBJECTS = (
    dict(body_height=36, body_width=12, period_frames=12, stride_px=24,
         leg_swing_amplitude=22, start_x=36),
    dict(body_height=50, body_width=15, period_frames=16, stride_px=30,
         leg_swing_amplitude=28, start_x=36),
    dict(body_height=66, body_width=20, period_frames=21, stride_px=38,
         leg_swing_amplitude=36, start_x=36),
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("small") / "data"
    for si, kw in enumerate(SUBJECTS):
        for qi in range(4):
            spec = WalkerSpec(noise_rate=0.005, seed=100 * si + qi, **kw)
            seq, _ = generate(spec, 240, 96, 3 * spec.period_frames + 8)
            save_sequence(seq, root / f"walker{si}" / f"take{qi}")
    return root


def make_cfg(small_dataset, out_dir, **kw):
    return pipeline.PipelineConfig(data_dir=str(small_dataset), out_dir=str(out_dir), **kw)


class TestPipeline:
    def test_report_structure(self, small_dataset, tmp_path):
        result = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "out"))
        assert result.confusion.total == len(result.test) == 3
        assert set(result.scores) == {"accuracy", "precision", "recall", "f_measure"}
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "[config]" in report and "[measures]" in report
        assert "split_seed = 0" in report  # seeds embedded
        assert "data_dir =" in report
        for name in ("features.csv", "model.svm", "gallery.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_three_train_one_test_per_subject(self, small_dataset, tmp_path):
        result = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "out"))
        per_subject = {}
        for row in result.train:
            per_subject[row.subject] = per_subject.get(row.subject, 0) + 1
        assert set(per_subject.values()) == {3}
        assert len(result.test) == 3

    def test_byte_identical_reruns(self, small_dataset, tmp_path):
        a = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "a"))
        b = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "b"))
        for name in ("features.csv", "model.svm", "gallery.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # reports differ only in the configured output path
        fix = lambda text, tag: text.replace(str(tmp_path / tag), "OUT")
        assert fix(a.report, "a") == fix(b.report, "b")

    def test_features_csv_reuses_the_extraction(self, small_dataset, tmp_path, monkeypatch):
        first = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "out"))
        features, model = tmp_path / "out" / "features.csv", tmp_path / "out" / "model.svm"
        extracted = features.read_bytes(), model.read_bytes()
        monkeypatch.setattr(pipeline, "extract_features", lambda cfg: pytest.fail("extracted"))
        again = pipeline.run_pipeline(
            make_cfg(small_dataset, tmp_path / "out", features_csv=str(features)))
        assert (features.read_bytes(), model.read_bytes()) == extracted
        assert again.scores == first.scores

    def test_features_csv_retrains_under_the_new_kernel(self, small_dataset, tmp_path,
                                                        monkeypatch):
        first = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "out"))
        cfg = make_cfg(small_dataset, tmp_path / "out", kernel="linear",
                       features_csv=str(tmp_path / "out" / "features.csv"))
        monkeypatch.setattr(pipeline, "extract_features", lambda cfg: pytest.fail("extracted"))
        reused = pipeline.run_pipeline(cfg)
        assert svm.load_model(tmp_path / "out" / "model.svm").kernel == svm.KernelSpec("linear", 10)
        model = pipeline.train_rows(first.train, cfg.kernel_spec(), cfg)
        svm.save_model(model, tmp_path / "linear.svm")
        assert (tmp_path / "out" / "model.svm").read_bytes() == (
            tmp_path / "linear.svm").read_bytes()
        truth = [r.subject for r in first.test]
        assert reused.scores == pipeline.score_model(model, pipeline.feature_matrix(first.test),
                                                     truth)[1]

    @pytest.mark.parametrize("run", [pipeline.run_ablation, pipeline.run_kernel_sweep])
    def test_features_csv_serves_the_other_run_commands(self, small_dataset, tmp_path,
                                                        monkeypatch, run):
        fresh = run(make_cfg(small_dataset, tmp_path / "fresh"))
        pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "out"))
        kept = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        monkeypatch.setattr(pipeline, "extract_features", lambda cfg: pytest.fail("extracted"))
        reused = run(make_cfg(small_dataset, tmp_path / "out",
                              features_csv=str(tmp_path / "out" / "features.csv")))
        assert reused == fresh
        for name, data in kept.items():  # report.txt and features.csv stay as they were
            assert (tmp_path / "out" / name).read_bytes() == data

    def test_extraction_in_reused_buffers_equals_each_walk_alone(self, benchmark_dataset,
                                                                 tmp_path, monkeypatch):
        """Every walk of one extraction is read and segmented into the same
        buffers; largest walk first or smallest first, each row is bit-equal
        to the walk's row without buffers."""
        data_dir, _ = benchmark_dataset
        cfg = pipeline.PipelineConfig(data_dir=str(data_dir), out_dir=str(tmp_path / "out"))
        triples = pipeline.discover_dataset(data_dir)
        alone = {path: pipeline.sequence_feature_row(s, q, path, cfg) for s, q, path in triples}
        load = pipeline.load_sequence
        used = []

        def loading(directory, buffers=None):
            used.append(buffers)
            return load(directory, buffers=buffers)

        monkeypatch.setattr(pipeline, "load_sequence", loading)
        for largest_first in (True, False):
            ordered = sorted(triples, key=lambda t: len(os.listdir(t[2])), reverse=largest_first)
            monkeypatch.setattr(pipeline, "discover_dataset", lambda _: ordered)
            used.clear()
            rows = pipeline.extract_features(cfg)
            assert isinstance(used[0], WalkBuffers) and all(b is used[0] for b in used)
            for row, (subject, sequence, path) in zip(rows, ordered, strict=True):
                want = alone[path]
                assert (row.subject, row.sequence) == (subject, sequence)
                assert row.period == want.period and row.vector.tobytes() == want.vector.tobytes()

    def test_missing_dataset_names_ingestion(self, tmp_path):
        cfg = pipeline.PipelineConfig(data_dir=str(tmp_path / "missing"),
                                      out_dir=str(tmp_path / "out"))
        with pytest.raises(StageError) as err:
            pipeline.run_pipeline(cfg)
        assert err.value.stage == "ingestion"

    def test_empty_sequence_dir_names_ingestion(self, tmp_path):
        (tmp_path / "data" / "w0" / "t0").mkdir(parents=True)
        cfg = pipeline.PipelineConfig(data_dir=str(tmp_path / "data"),
                                      out_dir=str(tmp_path / "out"))
        with pytest.raises(StageError) as err:
            pipeline.run_pipeline(cfg)
        assert err.value.stage == "ingestion"

    def test_stage_error_names_the_failing_sequence(self, small_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(small_dataset, data)
        frame = sorted((data / "walker1" / "take2").iterdir())[5]
        frame.write_bytes(frame.read_bytes()[:40])  # header intact, raster cut short
        with pytest.raises(StageError) as err:
            pipeline.run_pipeline(make_cfg(data, tmp_path / "out"))
        assert err.value.stage == "ingestion"
        assert err.value.location == "walker1/take2"
        assert str(err.value).startswith("[ingestion] walker1/take2: ")

    def test_gallery_holds_per_subject_training_means(self, small_dataset, tmp_path):
        result = pipeline.run_pipeline(make_cfg(small_dataset, tmp_path / "out"))
        gallery = dict(pipeline.gallery_means(result.train))
        lines = (tmp_path / "out" / "gallery.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        for row in result.train:
            by_subject = [r.vector for r in result.train if r.subject == row.subject]
            assert np.allclose(gallery[row.subject], np.mean(by_subject, axis=0))


class TestAblation:
    def test_six_rows_with_expected_dimensions(self, small_dataset, tmp_path):
        results = pipeline.run_ablation(make_cfg(small_dataset, tmp_path / "out"))
        assert [r["feature_set"] for r in results] == ["S", "T", "W", "S+T", "S+W", "S+T+W"]
        assert [r["dimension"] for r in results] == [4, 4, 6, 8, 10, 14]
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in results)
        csv = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
        assert csv[0] == "feature_set,dimension,accuracy"
        assert len(csv) == 7

    def test_empty_dataset_rejected(self, tmp_path):
        (tmp_path / "data").mkdir()
        cfg = pipeline.PipelineConfig(data_dir=str(tmp_path / "data"),
                                      out_dir=str(tmp_path / "out"))
        with pytest.raises(StageError):
            pipeline.run_ablation(cfg)


class TestKernelSweep:
    def test_reports_best_per_kernel(self, small_dataset, tmp_path):
        results = pipeline.run_kernel_sweep(make_cfg(small_dataset, tmp_path / "out"))
        by_kernel = {r["kernel"]: r for r in results}
        assert set(by_kernel) == {"linear", "poly", "rbf"}
        assert by_kernel["linear"]["evaluations"] == 4
        assert by_kernel["poly"]["evaluations"] == 8
        assert by_kernel["rbf"]["evaluations"] == 16
        assert by_kernel["rbf"]["sigma"] in (0.5, 1.0, 2.0, 5.0)
        assert by_kernel["poly"]["degree"] in (2, 3)
        for r in results:
            assert r["c"] in (0.1, 1.0, 10.0, 100.0)

    def test_grid_per_kernel_in_sweep_order(self):
        cs = (0.1, 1.0, 10.0, 100.0)
        assert pipeline.sweep_grid("linear") == [svm.KernelSpec("linear", c) for c in cs]
        assert pipeline.sweep_grid("poly") == [
            svm.KernelSpec("poly", c, degree=d) for c in cs for d in (2, 3)]
        assert pipeline.sweep_grid("rbf") == [
            svm.KernelSpec("rbf", c, sigma=s) for c in cs for s in (0.5, 1.0, 2.0, 5.0)]


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "fps = 30\n"
            "kernel rbf\n"
            "sigma = 1.5\n"
            "split_seed = 7\n"
        )
        cfg = pipeline.parse_config(cfg_file)
        assert cfg.fps == 30.0
        assert cfg.kernel == "rbf"
        assert cfg.sigma == 1.5
        assert cfg.split_seed == 7

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\n")
        with pytest.raises(ValueError):
            pipeline.parse_config(cfg_file)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            pipeline.PipelineConfig(split_fraction=1.5).validate()

    @pytest.mark.parametrize("setting", ["c = -1", "sigma = 0", "kernel = poly\ndegree = 0"])
    def test_bad_kernel_settings_rejected_before_any_stage(self, small_dataset, tmp_path, capsys,
                                                          setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {small_dataset}\nout_dir = {tmp_path / 'out'}\n{setting}\n")
        assert main(["pipeline", "--config", str(cfg), "--quiet"]) == 1
        assert "[ingestion]" not in capsys.readouterr().err
        assert not (tmp_path / "out" / "features.csv").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("c = inf", "regularization parameter c must be positive and finite"),
            ("sigma = inf", "RBF kernel needs a finite sigma > 0"),
            ("smo_tol = 0", "smo_tol must be positive"),
            ("split_seed = -1", "split_seed must be non-negative"),
            ("smo_max_passes = -3", "smo_max_passes must be at least 1"),
            ("fps = inf", "fps must be positive and finite"),
            ("smo_tol = inf", "smo_tol must be positive and finite"),
        ],
        ids=["c", "sigma", "smo_tol", "split_seed", "smo_max_passes", "fps-inf", "smo_tol-inf"],
    )
    def test_out_of_range_value_names_its_key_before_any_stage(self, small_dataset, tmp_path,
                                                               capsys, setting, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {small_dataset}\nout_dir = {tmp_path / 'out'}\n{setting}\n")
        assert main(["pipeline", "--config", str(cfg), "--quiet"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "features.csv").exists()

    def test_non_ascii_data_dir_rejected_before_any_stage(self, small_dataset, tmp_path, capsys):
        # report.txt is ASCII, so a path it cannot hold must fail up front
        data = tmp_path / "donn\u00e9e"
        shutil.copytree(small_dataset, data)
        out = tmp_path / "out"
        assert main(["pipeline", "--data", str(data), "--out", str(out), "--quiet"]) == 1
        assert "data_dir" in capsys.readouterr().err
        assert not (out / "features.csv").exists() and not (out / "report.txt").exists()

    def test_non_ascii_digit_threshold_rejected_before_any_stage(self, small_dataset, tmp_path,
                                                                capsys):
        # U+0663 ARABIC-INDIC DIGIT THREE is a decimal digit to str.isdecimal
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {small_dataset}\nout_dir = {tmp_path / 'out'}\n"
                       "segmentation_threshold = \u0663\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg), "--quiet"]) == 1
        assert "segmentation_threshold" in capsys.readouterr().err
        assert not (tmp_path / "out" / "features.csv").exists()
        assert not (tmp_path / "out" / "report.txt").exists()
        with pytest.raises(ValueError, match="threshold"):
            check_threshold("\u0663")


class TestCli:
    def test_full_command_chain(self, tmp_path, capsys):
        spec_file = tmp_path / "walker.cfg"
        spec_file.write_text(
            "body_height = 50\nbody_width = 15\nperiod_frames = 16\n"
            "stride_px = 30\nleg_swing_amplitude = 28\nstart_x = 36\n"
            "noise_rate = 0.005\nseed = 3\nframe_w = 240\nframe_h = 96\nn_frames = 56\n"
        )
        frames = tmp_path / "frames"
        assert main(["synth", "--spec", str(spec_file), "--out", str(frames), "--quiet"]) == 0
        assert (frames / "truth.csv").exists()

        bg = tmp_path / "bg.pgm"
        assert main(["background", "--technique", "median", "--in", str(frames),
                     "--out", str(bg), "--quiet"]) == 0
        assert bg.exists()

        sil = tmp_path / "sil"
        assert main(["segment", "--bg", str(bg), "--in", str(frames),
                     "--out", str(sil), "--quiet"]) == 0

        assert main(["cycles", "--in", str(sil)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("period_frames,16")
        assert "cycle," in out and "frame,width" in out

        feats_a = tmp_path / "a.csv"
        assert main(["features", "--in", str(sil), "--fps", "25",
                     "--subject", "w1", "--out", str(feats_a), "--quiet"]) == 0

        # second walker for a two-class model
        spec_file.write_text(
            "body_height = 66\nbody_width = 20\nperiod_frames = 21\n"
            "stride_px = 38\nleg_swing_amplitude = 36\nstart_x = 36\n"
            "noise_rate = 0.005\nseed = 4\nframe_w = 240\nframe_h = 96\nn_frames = 71\n"
        )
        frames_b = tmp_path / "frames_b"
        assert main(["synth", "--spec", str(spec_file), "--out", str(frames_b), "--quiet"]) == 0
        bg_b = tmp_path / "bg_b.pgm"
        sil_b = tmp_path / "sil_b"
        assert main(["background", "--in", str(frames_b), "--out", str(bg_b), "--quiet"]) == 0
        assert main(["segment", "--bg", str(bg_b), "--in", str(frames_b),
                     "--out", str(sil_b), "--quiet"]) == 0
        feats_b = tmp_path / "b.csv"
        assert main(["features", "--in", str(sil_b), "--fps", "25",
                     "--subject", "w2", "--out", str(feats_b), "--quiet"]) == 0

        merged = tmp_path / "all.csv"
        a_lines = feats_a.read_text().splitlines()
        b_lines = feats_b.read_text().splitlines()
        merged.write_text("\n".join(a_lines + b_lines[1:]) + "\n")

        model = tmp_path / "model.svm"
        assert main(["train", "--features", str(merged), "--kernel", "rbf",
                     "--c", "10", "--sigma", "2", "--out", str(model), "--quiet"]) == 0
        capsys.readouterr()

        assert main(["predict", "--model", str(model), "--features", str(merged)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "subject,sequence,predicted"
        assert out[1].startswith("w1,") and out[1].endswith("w1")
        assert out[2].startswith("w2,") and out[2].endswith("w2")

        assert main(["evaluate", "--model", str(model), "--features", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "accuracy = 1.000000" in out
        assert "[confusion-matrix]" in out and "[measures]" in out  # the report's sections

    def test_background_techniques_agree_on_a_noise_free_walk(self, tmp_path):
        spec = tmp_path / "walker.cfg"
        spec.write_text("period_frames = 16\n")
        frames = tmp_path / "frames"
        assert main(["synth", "--spec", str(spec), "--out", str(frames), "--quiet"]) == 0
        references = []
        for technique in ("cdm", "median", "histogram"):
            bg = tmp_path / f"bg-{technique}.pgm"
            assert main(["background", "--technique", technique, "--in", str(frames),
                         "--out", str(bg), "--quiet"]) == 0
            references.append(load_background(bg).reference.pixels)
        for reference in references:
            assert reference.tobytes() == references[0].tobytes()

    def test_segment_writes_the_per_frame_chain(self, tmp_path):
        spec = WalkerSpec(body_height=36, body_width=12, period_frames=12, stride_px=24,
                          leg_swing_amplitude=22, start_x=36, noise_rate=0.01, seed=7)
        seq, _ = generate(spec, 160, 64, 40)
        frames, bg, sil = tmp_path / "frames", tmp_path / "bg.pgm", tmp_path / "sil"
        save_sequence(seq, frames)
        assert main(["background", "--in", str(frames), "--out", str(bg), "--quiet"]) == 0
        assert main(["segment", "--bg", str(bg), "--in", str(frames), "--out", str(sil),
                     "--quiet"]) == 0
        reference = load_background(bg).reference.pixels
        written = sorted(sil.iterdir())
        assert len(written) == len(seq)
        for path, frame in zip(written, seq):
            pixels, _ = read_pnm(path)
            expected = np.where(reference_segment(frame.pixels, reference), 255, 0)
            assert pixels.tobytes() == expected.astype(np.uint8).tobytes()

    def test_non_finite_fps_is_a_usage_error(self, tmp_path, capsys):
        write_pgm(tmp_path / "sil" / "frame_0001.pgm", np.zeros((4, 4), np.uint8))
        out = tmp_path / "f.csv"
        assert main(["features", "--in", str(tmp_path / "sil"), "--fps", "inf",
                     "--out", str(out)]) == 1
        assert "fps must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_train_settings_come_from_config_then_flags(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [pipeline.FeatureRow(subject, f"s{i}", rng.normal(k, 1.0, 14))
                for k, subject in enumerate(("x", "y", "z")) for i in range(3)]
        feats = tmp_path / "f.csv"
        pipeline.write_features_csv(rows, feats)
        x = np.array([r.vector for r in rows])
        labels = [r.subject for r in rows]

        def train(*flags):
            out = tmp_path / "m.svm"
            assert main(["train", "--features", str(feats), "--out", str(out), "--quiet",
                         *flags]) == 0
            return out.read_text()

        def library(spec, **kw):
            svm.save_model(svm.train_multiclass(x, labels, spec, **kw), tmp_path / "lib.svm")
            return (tmp_path / "lib.svm").read_text()

        assert train() == library(svm.KernelSpec("rbf", 10.0, sigma=2.0))
        cfg = tmp_path / "train.cfg"
        cfg.write_text("kernel = linear\nc = 3\nsmo_tol = 0.5\nsmo_max_passes = 2\n")
        text = train("--config", str(cfg))
        assert {ln for ln in text.splitlines() if ln.startswith("kernel ")} == {"kernel linear 3"}
        spec = svm.KernelSpec("linear", 3.0)
        assert text == library(spec, tol=0.5, max_passes=2) != library(spec)
        text = train("--config", str(cfg), "--kernel", "poly", "--degree", "2")
        assert {ln for ln in text.splitlines() if ln.startswith("kernel ")} == {"kernel poly 3 2"}

    def test_train_refuses_a_kernel_that_overflows(self, tmp_path, capsys):
        feats = _random_features(tmp_path / "f.csv")
        out = tmp_path / "m.svm"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--features", str(feats), "--kernel", "poly", "--degree",
                         "400", "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.err == "error: [training] kernel poly 10 400 overflows float64\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["f.csv", "sub/../f.csv"])
    def test_train_refuses_to_overwrite_its_features(self, tmp_path, capsys, spelling):
        feats = tmp_path / "f.csv"
        rows = [_row(s, q, value=v) for s, v in (("ann", "0.1"), ("bob", "0.9")) for q in "01"]
        feats.write_text(HEADER + "".join(rows))
        (tmp_path / "sub").mkdir()
        before = feats.read_bytes()
        out = tmp_path / spelling
        assert main(["train", "--features", str(feats), "--out", str(out), "--quiet"]) == 1
        assert feats.read_bytes() == before
        err = capsys.readouterr().err
        assert f"--out {out} " in err and f"--features {feats}" in err
        assert main(["train", "--features", str(feats), "--out", str(tmp_path / "m.svm"),
                     "--quiet"]) == 0

    @pytest.mark.parametrize("spelling", ["frames", "sub/../frames/"])
    def test_segment_refuses_to_overwrite_its_frames(self, tmp_path, capsys, spelling):
        seq, _ = generate(WalkerSpec(body_height=36, body_width=12, period_frames=12,
                                     stride_px=24, leg_swing_amplitude=22, start_x=36),
                          160, 64, 36)
        frames, bg = tmp_path / "frames", tmp_path / "bg.pgm"
        save_sequence(seq, frames)
        assert main(["background", "--in", str(frames), "--out", str(bg), "--quiet"]) == 0
        (tmp_path / "sub").mkdir()
        before = {p.name: p.read_bytes() for p in frames.iterdir()}
        out = f"{tmp_path}/{spelling}"
        assert main(["segment", "--bg", str(bg), "--in", str(frames), "--out", out,
                     "--quiet"]) == 1
        assert {p.name: p.read_bytes() for p in frames.iterdir()} == before
        err = capsys.readouterr().err
        assert f"--out {out} " in err and f"--in {frames}" in err

    def test_pipeline_command_with_config(self, small_dataset, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"data_dir = {small_dataset}\nout_dir = {tmp_path / 'out'}\nkernel = rbf\n"
        )
        assert main(["pipeline", "--config", str(cfg_file), "--quiet"]) == 0
        assert (tmp_path / "out" / "report.txt").exists()
        with cfg_file.open("a") as f:  # the ablation reuses the pipeline's extraction
            f.write(f"features_csv = {tmp_path / 'out' / 'features.csv'}\n")
        assert main(["ablation", "--config", str(cfg_file), "--quiet"]) == 0
        assert (tmp_path / "out" / "ablation.csv").exists()

    def test_cdm_auto_threshold_when_every_difference_is_255(self, tmp_path):
        # Otsu's '> t' class is empty, so no transition fires
        frames = tmp_path / "frames"
        frames.mkdir()
        for i, v in enumerate([0, 255, 0, 255, 0, 255], start=1):
            write_pgm(frames / f"frame_{i:04d}.pgm", np.full((1, 1), v, np.uint8))
        bg = tmp_path / "bg.pgm"
        assert main(["background", "--technique", "cdm", "--in", str(frames),
                     "--out", str(bg), "--quiet"]) == 0
        back = load_background(bg)
        assert (back.technique, back.cdm_threshold) == ("cdm", 256)
        assert back.reference.pixels.tolist() == [[0]]  # lower median of all six frames
        save_background(back, tmp_path / "again.pgm")
        assert (tmp_path / "again.pgm").read_bytes() == bg.read_bytes()

    # int() reads 1_0 as 10 and +5 as 5; an auto threshold is at most 256
    @pytest.mark.parametrize("threshold", ["x1", "1_0", "+5", "-3", "999", "257", "", "9" * 5000],
                             ids=["x1", "1_0", "+5", "-3", "999", "257", "empty", "5000-nines"])
    def test_bad_background_provenance_is_a_data_error(self, tmp_path, capsys, threshold):
        bg = tmp_path / "bg.pgm"
        write_pgm(bg, np.zeros((4, 4)),
                  comment=f"gaitlock-background technique=cdm threshold={threshold}")
        with pytest.raises(DecodeError, match=re.escape(f"{bg}: bad threshold")):
            load_background(bg)
        assert main(["segment", "--bg", str(bg), "--in", str(tmp_path / "frames"),
                     "--out", str(tmp_path / "sil")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bg}: bad threshold") and len(err) < 200, err
        assert not (tmp_path / "sil").exists()

    @pytest.mark.parametrize(
        "width, problem",
        [
            (b"1_0", "not a decimal number"),  # int() reads both as 10
            (b"+10", "not a decimal number"),
            # int() refuses more than 4,300 digits
            (b"9" * 5000, "in [0, 2147483647]: '99999999999999999999'... (5000 characters)"),
            (b"0" * 5000 + b"2147483648", "in [0, 2147483647]: '00000000000000000000'... (5010 "),
        ],
        ids=["1_0", "+10", "5000-nines", "above-the-cap"],
    )
    def test_header_number_beyond_decimal_digits_is_a_data_error(self, tmp_path, capsys, width,
                                                                 problem):
        frame = tmp_path / "frames" / "frame_0001.pgm"
        frame.parent.mkdir()
        frame.write_bytes(b"P5\n" + width + b" 1\n255\n" + bytes(10))
        with pytest.raises(DecodeError, match=re.escape(problem)):
            read_pnm(frame)
        assert main(["background", "--in", str(frame.parent), "--out", str(tmp_path / "bg.pgm"),
                     "--quiet"]) == 2
        assert f"error: {frame}: malformed header" in capsys.readouterr().err

    @pytest.mark.parametrize("raster", RASTER_COMMENTS)
    def test_segment_reads_no_comment_from_the_raster(self, tmp_path, raster):
        bg = tmp_path / "bg.pgm"
        write_one_row_pgm(bg, raster)
        for i in range(1, 4):
            write_pgm(tmp_path / "frames" / f"frame_{i:04d}.pgm", np.zeros((1, len(raster))))
        assert main(["segment", "--bg", str(bg), "--in", str(tmp_path / "frames"),
                     "--out", str(tmp_path / "sil"), "--quiet"]) == 0
        assert load_background(bg).technique is None

    def test_usage_error_exit_code(self, capsys):
        assert main(["background"]) == 1  # required flags missing
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert main(["cycles", "--in", str(tmp_path / "nope")]) == 2
        assert main(["predict", "--model", str(tmp_path / "no.svm"),
                     "--features", str(tmp_path / "no.csv")]) == 2
        capsys.readouterr()

    def _two_subject_model(self, tmp_path):
        rows = [
            pipeline.FeatureRow("x", "s0", np.linspace(0, 1, 14)),
            pipeline.FeatureRow("y", "s0", np.linspace(1, 2, 14)),
            pipeline.FeatureRow("x", "s1", np.linspace(0.1, 1.1, 14)),
            pipeline.FeatureRow("y", "s1", np.linspace(1.1, 2.1, 14)),
        ]
        feats = tmp_path / "f.csv"
        pipeline.write_features_csv(rows, feats)
        model = tmp_path / "m.svm"
        assert main(["train", "--features", str(feats), "--kernel", "linear",
                     "--c", "10", "--out", str(model), "--quiet"]) == 0
        return model, feats

    def test_labels_file_for_evaluate(self, tmp_path, capsys):
        model, feats = self._two_subject_model(tmp_path)
        labels = tmp_path / "labels.csv"
        labels.write_text("label\nx\ny\nx\ny\n")
        assert main(["evaluate", "--model", str(model), "--features", str(feats),
                     "--labels", str(labels)]) == 0
        capsys.readouterr()
        labels.write_text("x\ny\n")  # wrong count
        assert main(["evaluate", "--model", str(model), "--features", str(feats),
                     "--labels", str(labels)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"label\nx\ny\nx\nsubj\xff\n",
             "{}: not ASCII text (ordinal not in range(128) at byte 16)"),
            # labels go unquoted into the confusion matrix's csv rows
            (b"label\nx\n\ny\na,b\ny\n", "name 'a,b' in {} line 5 must be printable ASCII"),
            (b"label\nx\n\ny\na b\ny\n", "name 'a b' in {} line 5 must be printable ASCII"),
        ],
        ids=["non-ascii", "comma", "space"],
    )
    def test_bad_labels_are_a_data_error(self, tmp_path, capsys, content, message):
        model, feats = self._two_subject_model(tmp_path)
        labels = tmp_path / "labels.txt"
        labels.write_bytes(content)
        assert main(["evaluate", "--model", str(model), "--features", str(feats),
                     "--labels", str(labels)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message.format(labels) in err


HEADER = "subject,sequence," + ",".join(FEATURE_NAMES) + "\n"


def _row(subject, sequence, value="0.5", n=len(FEATURE_NAMES)):
    return f"{subject},{sequence}," + ",".join([value] * n) + "\n"


@pytest.fixture
def model(tmp_path):
    x = np.vstack([np.full(14, 0.0), np.full(14, 0.2), np.full(14, 1.0), np.full(14, 1.2)])
    model = svm.train_multiclass(x, ["ann", "ann", "bob", "bob"], svm.KernelSpec("linear", 1.0))
    svm.save_model(model, tmp_path / "m.svm")
    return tmp_path / "m.svm"


class TestModelFile:
    @pytest.mark.parametrize("pair", ["ann zed", "bob bob"])
    def test_pair_labels_outside_the_classes_are_a_data_error(self, tmp_path, capsys, model,
                                                              pair):
        model.write_text(model.read_text().replace("pair ann bob", f"pair {pair}"))
        feats = tmp_path / "f.csv"
        feats.write_text(HEADER + _row("ann", "s0"))
        assert main(["predict", "--model", str(model), "--features", str(feats)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"'pair {pair}'" in err


    @pytest.mark.parametrize(
        "keyword, offset, text, message",
        [
            ("normalization", 1, "0.5 0", "normalization record '0.5 0' needs"),
            ("normalization", 1, "inf 1", "normalization record 'inf 1' needs"),
            ("kernel", 0, "kernel linear inf", "record 'kernel linear inf' holds"),
            ("bias", 0, "bias nan", "record 'bias nan' of pair ann bob holds"),
            ("vectors", 1, "1" + " nan" * 14, "a 'vectors' row of pair ann bob holds"),
            ("vectors", 2, "inf" + " 0.5" * 14, "a 'vectors' row of pair ann bob holds"),
            # counts beyond the file must not size an allocation
            ("vectors", 0, "vectors 100000000000 14", "record 'vectors 100000000000 14'"),
            ("normalization", 0, "normalization 100000000000",
             "record 'normalization 100000000000'"),
            ("vectors", 0, "vectors -1 14", "record 'vectors -1 14' of pair ann bob has"),
            ("normalization", 0, "normalization -14", "record 'normalization -14' has"),
            ("classes", 0, "classes -2", "record 'classes -2' has"),
            # int() refuses more than 4,300 digits
            ("machines", 0, "machines " + "9" * 5000,
             "has a bad count: not a decimal number in [0, 2147483647]: '99999999999999999999'..."),
            ("normalization", 1, "0.5 1 2",
             "normalization record '0.5 1 2' needs a mean and a std"),
        ],
        ids=["zero-std", "infinite-mean", "infinite-c", "nan-bias", "nan-vector",
             "infinite-second-coefficient", "huge-vectors-count", "huge-normalization-count",
             "negative-vectors-count", "negative-normalization-count", "negative-classes-count",
             "5000-digit-machines-count", "three-field-normalization"],
    )
    def test_corrupt_numbers_are_a_data_error(self, tmp_path, capsys, model, keyword, offset,
                                              text, message):
        lines = model.read_text().splitlines()
        index = next(i for i, ln in enumerate(lines) if ln.startswith(keyword)) + offset
        lines[index] = text
        model.write_text("\n".join(lines) + "\n")
        where = f"{model} line {index + 1}: "  # the line that was changed
        with pytest.raises(FormatError, match=re.escape(where) + ".*" + re.escape(message)):
            svm.load_model(model)
        feats = tmp_path / "f.csv"
        feats.write_text(HEADER + _row("ann", "s0"))
        assert main(["predict", "--model", str(model), "--features", str(feats)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {where}" in err and message in err

    def test_gallery_scale_model_round_trips_and_predicts_as_it_evaluates(self, tmp_path,
                                                                           capsys, monkeypatch):
        # the benchmark's seed-0 gallery: 48 subjects x 8 walks, so 1,128 machines
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "gaitbench"))
        from workloads import write_gallery

        gallery, model = tmp_path / "gallery.csv", tmp_path / "model.svm"
        write_gallery(gallery, 0)
        assert main(["train", "--features", str(gallery), "--out", str(model), "--quiet"]) == 0
        assert "machines 1128" in model.read_text().splitlines()
        svm.save_model(svm.load_model(model), tmp_path / "again.svm")
        assert (tmp_path / "again.svm").read_bytes() == model.read_bytes()
        assert main(["predict", "--model", str(model), "--features", str(gallery)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "subject,sequence,predicted" and len(lines) == 1 + 384
        rows = [ln.split(",") for ln in lines[1:]]
        share = sum(subject == predicted for subject, _, predicted in rows) / len(rows)
        assert main(["evaluate", "--model", str(model), "--features", str(gallery)]) == 0
        (accuracy,) = [ln.split(" = ")[1] for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("accuracy = ")]
        assert f"{share:.6f}" == accuracy


class TestFeaturesFile:
    @pytest.mark.parametrize(
        "text, message",
        [
            (HEADER.replace("sequence", "walk") + _row("ann", "s0"), "line 1: unexpected"),
            (HEADER + _row("ann", "s0") + _row("ann", "s1", n=15), "line 3: expected 16 fields"),
            (HEADER + _row("ann", "s0") + _row("ann", "s1", value="x"), "line 3: could not"),
            (HEADER + _row("ann", "s0") + _row("zo\u00eb", "s1"), "not ASCII text"),
        ],
        ids=["header", "field-count", "non-numeric", "non-ascii"],
    )
    def test_malformed_file_is_a_data_error(self, tmp_path, capsys, model, text, message):
        feats = tmp_path / "f.csv"
        feats.write_bytes(text.encode("utf-8"))
        with pytest.raises(FormatError, match=message):
            pipeline.read_features_csv(feats)
        assert main(["train", "--features", str(feats), "--out", str(tmp_path / "new.svm"),
                     "--quiet"]) == 2
        assert main(["predict", "--model", str(model), "--features", str(feats)]) == 2
        assert main(["evaluate", "--model", str(model), "--features", str(feats)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count(f"{feats}") == 3

    def test_non_finite_probe_is_a_data_error(self, tmp_path, capsys, model):
        feats = tmp_path / "f.csv"
        feats.write_text(HEADER + _row("ann", "s0") + _row("bob", "s0", value="nan"))
        assert main(["predict", "--model", str(model), "--features", str(feats)]) == 2
        assert main(["evaluate", "--model", str(model), "--features", str(feats)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("NaN or infinity") == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_non_finite_value_names_its_file_line_and_column(self, tmp_path, capsys, model,
                                                             command, value):
        fields = _row("bob", "s1").rstrip("\n").split(",")
        fields[2 + 3] = value
        feats = tmp_path / "f.csv"
        feats.write_text(HEADER + _row("ann", "s0") + _row("ann", "s1") + _row("bob", "s0")
                         + ",".join(fields) + "\n")
        with pytest.raises(FormatError, match=f"line 5: {FEATURE_NAMES[3]} is NaN or infinity"):
            pipeline.read_features_csv(feats)
        tail = (["--out", str(tmp_path / "new.svm"), "--quiet"] if command == "train"
                else ["--model", str(model)])
        assert main([command, "--features", str(feats), *tail]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{feats} line 5: {FEATURE_NAMES[3]} is NaN or infinity" in err
        assert not (tmp_path / "new.svm").exists()

    def test_subject_with_one_sequence_is_a_data_error(self, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        feats.write_text(HEADER + "".join(_row(s, q) for s in "ab" for q in ("s0", "s1"))
                         + _row("c", "s0"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"features_csv = {feats}\nout_dir = {tmp_path / 'out'}\n")
        with pytest.raises(TooFewSequences, match="subject c "):
            pipeline.run_pipeline(pipeline.parse_config(cfg))
        assert main(["pipeline", "--config", str(cfg), "--quiet"]) == 2
        assert "subject c has too few sequences to split (1)" in capsys.readouterr().err


BAD_NAMES = ("john smith", "a,b", "tab\tname", "bell\x07", "caf\u00e9")
NAME_CHARS = st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters=",")


class TestNames:
    @pytest.mark.parametrize("name", BAD_NAMES)
    @pytest.mark.parametrize("level", ("subject", "sequence"))
    def test_dataset_directory_rejected(self, tmp_path, capsys, name, level):
        subject = tmp_path / "data" / (name if level == "subject" else "ann")
        bad = subject / name if level == "sequence" else subject
        (subject / "t0").mkdir(parents=True)
        bad.mkdir(exist_ok=True)
        (tmp_path / "data" / "bob" / "t0").mkdir(parents=True)
        with pytest.raises(BadName) as err:
            pipeline.discover_dataset(tmp_path / "data")
        assert f"directory {bad} " in str(err.value)
        out = tmp_path / "out"
        assert main(["pipeline", "--data", str(tmp_path / "data"), "--out", str(out),
                     "--quiet"]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("name", ("john smith", "tab\tname", ""))
    def test_features_row_rejected(self, tmp_path, capsys, name):
        feats = tmp_path / "f.csv"
        values = ",".join(["0.5"] * len(FEATURE_NAMES))
        feats.write_text("subject,sequence," + ",".join(FEATURE_NAMES) + "\n"
                         + "".join(f"{s},s{i},{values}\n"
                                   for i, s in enumerate(["ann", "ann", name, name])))
        with pytest.raises(BadName, match="line 4"):
            pipeline.read_features_csv(feats)
        assert main(["train", "--features", str(feats), "--out", str(tmp_path / "m.svm"),
                     "--quiet"]) == 2
        assert "line 4" in capsys.readouterr().err
        assert not (tmp_path / "m.svm").exists()

    def test_features_command_rejects_subject(self, tmp_path, capsys):
        assert main(["features", "--in", str(tmp_path), "--out", str(tmp_path / "f.csv"),
                     "--subject", "john smith"]) == 2
        assert "--subject" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(NAME_CHARS, min_size=1, max_size=8), min_size=2, max_size=3,
                    unique=True))
    def test_accepted_names_round_trip(self, tmp_path_factory, names):
        """Every accepted name survives features.csv and model.svm."""
        for name in names:
            pipeline.check_name(name, "test")
        out = tmp_path_factory.mktemp("names")
        rows = [pipeline.FeatureRow(name, f"s{j}", np.full(14, i + 0.1 * j))
                for i, name in enumerate(names) for j in range(2)]
        pipeline.write_features_csv(rows, out / "f.csv")
        back = pipeline.read_features_csv(out / "f.csv")
        assert [(r.subject, r.sequence) for r in back] == [(r.subject, r.sequence) for r in rows]
        x = np.array([r.vector for r in back])
        model = svm.train_multiclass(x, [r.subject for r in back], svm.KernelSpec("linear", 1.0))
        svm.save_model(model, out / "m.svm")
        loaded = svm.load_model(out / "m.svm")
        assert loaded.classes == model.classes
        assert [m.class_pair for m in loaded.binaries] == [m.class_pair for m in model.binaries]
        assert svm.predict_many(loaded, x) == svm.predict_many(model, x)


def _random_features(path, subjects=6, sequences=8, seed=5):
    """Features CSV of Gaussian subject clusters, enough rows per column
    that summation order shows in the normalization statistics."""
    rng = np.random.default_rng(seed)
    rows = [pipeline.FeatureRow(f"w{k}", f"s{i}", rng.normal(k, 2.0, 14) * np.arange(1, 15))
            for k in range(subjects) for i in range(sequences)]
    pipeline.write_features_csv(rows, path)
    return path


class TestFeatureSets:
    def test_pipeline_model_equals_training_on_the_stacked_vectors(self, tmp_path):
        feats = _random_features(tmp_path / "f.csv")
        cfg = pipeline.PipelineConfig(features_csv=str(feats), out_dir=str(tmp_path / "run"))
        result = pipeline.run_pipeline(cfg)
        reference = svm.train_multiclass(
            np.array([r.vector for r in result.train]),
            [r.subject for r in result.train],
            cfg.kernel_spec(),
            tol=cfg.smo_tol,
            max_passes=cfg.smo_max_passes,
        )
        svm.save_model(reference, tmp_path / "reference.svm")
        assert (tmp_path / "run" / "model.svm").read_bytes() == (
            tmp_path / "reference.svm").read_bytes()
        cfg = pipeline.PipelineConfig(features_csv=str(feats), out_dir=str(tmp_path / "ablation"))
        full = pipeline.run_ablation(cfg)[-1]
        assert full["feature_set"] == "S+T+W"
        assert full["accuracy"] == result.scores["accuracy"]

    def test_columns_select_the_named_components(self):
        names = dict(pipeline.FEATURE_SETS)
        assert [FEATURE_NAMES[i] for i in names["S+W"]] == list(
            FEATURE_NAMES[:4] + FEATURE_NAMES[8:])
        assert names["S+T+W"] == tuple(range(14)) == pipeline.ALL_COLUMNS


class TestCommandOutput:
    def test_evaluate_prints_the_report_sections(self, tmp_path, capsys):
        feats = _random_features(tmp_path / "f.csv")
        cfg = pipeline.PipelineConfig(features_csv=str(feats), out_dir=str(tmp_path / "run"))
        result = pipeline.run_pipeline(cfg)
        pipeline.write_features_csv(result.test, tmp_path / "test.csv")
        assert main(["evaluate", "--model", str(tmp_path / "run" / "model.svm"),
                     "--features", str(tmp_path / "test.csv")]) == 0
        report = result.report.splitlines()
        start = report.index("[confusion-matrix]")
        end = next(i for i, ln in enumerate(report) if ln.startswith("nn_baseline_accuracy"))
        assert capsys.readouterr().out.splitlines() == report[start:end]

    @pytest.mark.parametrize("command, csv", [("ablation", "ablation.csv"),
                                              ("kernel-sweep", "kernel_sweep.csv")])
    def test_comparisons_print_the_csv_they_write(self, tmp_path, capsys, command, csv):
        feats = _random_features(tmp_path / "f.csv", subjects=3, sequences=4)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"features_csv = {feats}\nout_dir = {tmp_path / 'out'}\n")
        assert main([command, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (tmp_path / "out" / csv).read_text()


class TestThresholds:
    @pytest.mark.parametrize("key", ["background_threshold", "segmentation_threshold"])
    @pytest.mark.parametrize("value", ["-5", "abc", "300", "2.5"])
    def test_config_rejects_values_outside_auto_and_0_to_255(self, key, value):
        with pytest.raises(ValueError, match=key):
            pipeline.config_from_values({key: value})

    def test_config_accepts_auto_and_0_to_255(self):
        cfg = pipeline.config_from_values(
            {"background_threshold": "0", "segmentation_threshold": "255"})
        assert (cfg.background_threshold, cfg.segmentation_threshold) == ("0", "255")
        pipeline.config_from_values({"segmentation_threshold": "auto"})

    def test_rejected_before_any_stage_runs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("segmentation_threshold = -5\n")
        assert main(["pipeline", "--config", str(cfg), "--data", str(tmp_path / "none"),
                     "--out", str(tmp_path / "out")]) == 1
        assert main(["background", "--threshold", "300", "--in", str(tmp_path / "none"),
                     "--out", str(tmp_path / "bg.pgm")]) == 1
        assert main(["segment", "--threshold", "abc", "--bg", str(tmp_path / "none.pgm"),
                     "--in", str(tmp_path / "none"), "--out", str(tmp_path / "sil")]) == 1
        err = capsys.readouterr().err
        assert "[ingestion]" not in err and err.count("must be auto or an integer in [0, 255]") == 3
        assert not (tmp_path / "out").exists()

    def test_thousands_of_digits_name_the_flag_or_key(self, tmp_path, capsys):
        # int() refuses more than 4,300 digits with a message of its own
        nines = "9" * 5000
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"background_threshold = {nines}\n")
        assert main(["pipeline", "--config", str(cfg), "--data", str(tmp_path / "none"),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: background_threshold must be auto or an integer" in err
        # the value is cut to its first 20 characters and its length
        assert "'99999999999999999999'... (5000 characters)" in err and len(err) < 200
        for command in (["background", "--in", str(tmp_path / "none"), "--out",
                         str(tmp_path / "bg.pgm")],
                        ["segment", "--bg", str(tmp_path / "none.pgm"), "--in",
                         str(tmp_path / "none"), "--out", str(tmp_path / "sil")]):
            assert main([*command, "--threshold", nines]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: threshold must be auto or an integer in [0, 255]")
            assert "Exceeds" not in err
            assert err.rstrip("\n").endswith("'99999999999999999999'... (5000 characters)")
            assert len(err) < 200
        assert not (tmp_path / "out").exists()

    def test_leading_zeros_read_as_the_value_they_lead(self):
        value = "0" * 5000 + "7"
        assert check_threshold(value) == 7
        cfg = pipeline.config_from_values({"segmentation_threshold": value})
        assert check_threshold(cfg.segmentation_threshold) == 7


SYNTH_SPEC = (
    "body_height = 50\nbody_width = 15\nperiod_frames = 16\nstride_px = 30\n"
    "leg_swing_amplitude = 28\nstart_x = 36\nnoise_rate = 0.01\nframe_w = 240\nframe_h = 96\n"
)


def _frame_bytes(directory):
    return [p.read_bytes() for p in sorted(directory.glob("*.pgm"))]


class TestSynth:
    # fps is no spec key: the frame rate is read by the features stage alone
    @pytest.mark.parametrize("key", ["noise = 0.2", "fps = 30"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        spec = tmp_path / "walker.cfg"
        spec.write_text(SYNTH_SPEC + key + "\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "f"), "--quiet"]) == 1
        assert f"unknown walker spec key {key.split()[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_seed_flag_overrides_the_spec(self, tmp_path):
        spec = tmp_path / "walker.cfg"
        for seed in (3, 9):
            spec.write_text(SYNTH_SPEC + f"seed = {seed}\n")
            assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / f"s{seed}"),
                         "--quiet"]) == 0
        spec.with_name("flag.cfg").write_text(SYNTH_SPEC + "seed = 3\n")
        assert main(["synth", "--spec", str(spec.with_name("flag.cfg")), "--out",
                     str(tmp_path / "flag"), "--seed", "9", "--quiet"]) == 0
        assert _frame_bytes(tmp_path / "flag") == _frame_bytes(tmp_path / "s9")
        assert _frame_bytes(tmp_path / "flag") != _frame_bytes(tmp_path / "s3")

    def test_unset_keys_keep_the_library_defaults(self, tmp_path):
        spec = tmp_path / "walker.cfg"
        spec.write_text("# every key unset\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "cli"), "--quiet"]) == 0
        seq, _ = generate(WalkerSpec())
        save_sequence(seq, tmp_path / "lib")
        assert len(seq) == 3 * 24 + 8
        assert _frame_bytes(tmp_path / "cli") == _frame_bytes(tmp_path / "lib")


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("train", b"c = abc\n", "c"),
        ("train", b"smo_max_passes = 2.5\n", "smo_max_passes"),
        ("synth", b"period_frames = 1.5\n", "period_frames"),
        ("train", b"kernel = linear\nc = 1\xff\n", "c"),
        ("train", b"kernel = rbf\xff\n", "kernel"),
        ("synth", b"period_frames = 1\xff\n", "period_frames"),
    ],
    ids=["c", "smo_max_passes", "period_frames", "non-ascii-float", "non-ascii-str",
         "non-ascii-spec"],
)
def test_settings_file_value_that_does_not_convert_names_its_key(tmp_path, capsys, command,
                                                                 text, key):
    settings_file = tmp_path / "settings.cfg"
    settings_file.write_bytes(text)
    out = tmp_path / "out"
    if command == "train":
        feats = _random_features(tmp_path / "f.csv", subjects=2, sequences=2)
        argv = ["train", "--features", str(feats), "--config", str(settings_file)]
    else:
        argv = ["synth", "--spec", str(settings_file)]
    assert main(argv + ["--out", str(out), "--quiet"]) == 1
    assert f" {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_byte_in_a_settings_comment_is_ignored(tmp_path):
    feats = _random_features(tmp_path / "f.csv", subjects=2, sequences=2)
    cfg = tmp_path / "train.cfg"
    cfg.write_bytes(b"kernel = linear  # caf\xe9 \xff\n# \xff\n")
    assert main(["train", "--features", str(feats), "--config", str(cfg),
                 "--out", str(tmp_path / "m.svm"), "--quiet"]) == 0
    assert "kernel linear 10" in (tmp_path / "m.svm").read_text().splitlines()
    spec = tmp_path / "walker.cfg"
    spec.write_bytes(b"# \xff\n" + SYNTH_SPEC.encode("ascii") + b"seed = 3  # \xff\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    spec.write_text(SYNTH_SPEC + "seed = 3\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert _frame_bytes(tmp_path / "a") == _frame_bytes(tmp_path / "b")


def _command_flags():
    """Each subcommand's option strings, ``--help`` aside."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()}


class TestOptions:
    def test_readme_synopsis_lists_every_flag_of_every_command(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
        synopsis = {}
        for line in block.splitlines():
            _, command, *words = line.split()
            synopsis[command] = {w.strip("[]") for w in words if w.lstrip("[").startswith("--")}
        assert synopsis == _command_flags()

    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, model,
                                                              small_dataset):
        spec = tmp_path / "walker.cfg"
        spec.write_text("period_frames = 16\nframe_w = 240\nframe_h = 96\n")
        frames = tmp_path / "frames"
        assert main(["synth", "--spec", str(spec), "--out", str(frames), "--quiet"]) == 0
        feats = tmp_path / "f.csv"
        feats.write_text(HEADER + _row("ann", "s0"))
        runs = [
            (["predict", "--model", str(model), "--features", str(feats)], ["--seed", "1"]),
            (["background", "--in", str(frames), "--out", str(tmp_path / "bg.pgm")],
             ["--config", "x"]),
            (["background", "--in", str(frames), "--out", str(tmp_path / "bg.pgm")],
             ["--fps", "25"]),
            (["cycles", "--in", str(frames)], ["--quiet"]),
            (["synth", "--spec", str(spec), "--out", str(tmp_path / "again")], ["--resume"]),
        ]
        runs += [([command, "--data", str(small_dataset), "--out", str(tmp_path / command),
                   "--quiet"], ["--resume"])
                 for command in ("pipeline", "ablation", "kernel-sweep")]

        def tree():  # each file's bytes, and None for each directory
            return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

        before = tree()
        capsys.readouterr()
        for command, flag in runs:
            assert main(command + flag) == 1
            out, err = capsys.readouterr()
            assert out == "" and f"error: unrecognized arguments: {' '.join(flag)}" in err
        assert tree() == before
        for command, _ in runs:  # each runs without the flag
            assert main(command) == 0
