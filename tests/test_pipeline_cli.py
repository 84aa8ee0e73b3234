import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlock import pipeline, svm
from gaitlock.cli import main
from gaitlock.errors import BadName, FormatError, StageError
from gaitlock.features import FEATURE_NAMES
from gaitlock.imagery import save_sequence
from gaitlock.synthgait import WalkerSpec, generate

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

    def test_resume_skips_stages_and_matches(self, small_dataset, tmp_path):
        cfg = make_cfg(small_dataset, tmp_path / "out")
        first = pipeline.run_pipeline(cfg)
        features = (tmp_path / "out" / "features.csv").read_bytes()
        again = pipeline.run_pipeline(cfg, resume=True)
        assert (tmp_path / "out" / "features.csv").read_bytes() == features
        assert again.report == first.report

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

        assert main(["cycles", "--in", str(sil), "--fps", "25"]) == 0
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
        assert "measure,value" in out  # machine-readable block

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

    def test_pipeline_command_with_config(self, small_dataset, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"data_dir = {small_dataset}\nout_dir = {tmp_path / 'out'}\nkernel = rbf\n"
        )
        assert main(["pipeline", "--config", str(cfg_file), "--quiet"]) == 0
        assert (tmp_path / "out" / "report.txt").exists()
        assert main(["ablation", "--config", str(cfg_file), "--resume", "--quiet"]) == 0
        assert (tmp_path / "out" / "ablation.csv").exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["background"]) == 1  # required flags missing
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert main(["cycles", "--in", str(tmp_path / "nope"), "--fps", "25"]) == 2
        assert main(["predict", "--model", str(tmp_path / "no.svm"),
                     "--features", str(tmp_path / "no.csv")]) == 2
        capsys.readouterr()

    def test_labels_file_for_evaluate(self, tmp_path, capsys):
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
        labels = tmp_path / "labels.csv"
        labels.write_text("label\nx\ny\nx\ny\n")
        assert main(["evaluate", "--model", str(model), "--features", str(feats),
                     "--labels", str(labels)]) == 0
        capsys.readouterr()
        labels.write_text("x\ny\n")  # wrong count
        assert main(["evaluate", "--model", str(model), "--features", str(feats),
                     "--labels", str(labels)]) == 2
        capsys.readouterr()


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
