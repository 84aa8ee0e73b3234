"""Command-line front end wiring the pipeline stages together.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
import typing
from pathlib import Path

import numpy as np

from . import pipeline, svm, synthgait
from .background import (
    TECHNIQUES,
    build_background,
    check_threshold,
    load_background,
    save_background,
)
from .errors import GaitlockError, LengthMismatch
from .gaitcycle import estimate_period, partition_cycles, width_signal
from .imagery import frame_filename, load_sequence, save_sequence, write_pgm
from .segmentation import bounding_boxes, segment_sequence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _load_masks(directory) -> np.ndarray:
    return load_sequence(directory).pixels > 127


def cmd_background(args) -> int:
    threshold = check_threshold(args.threshold)
    seq = load_sequence(args.in_dir)
    model = build_background(seq, args.technique, threshold)
    save_background(model, args.out)
    _say(args, f"background ({model.technique}) written to {args.out}")
    return EXIT_OK


def cmd_segment(args) -> int:
    if Path(args.out).resolve() == Path(args.in_dir).resolve():
        raise ValueError(f"--out {args.out} would overwrite the frames of --in {args.in_dir}")
    threshold = check_threshold(args.threshold)
    bg = load_background(args.bg)
    seq = load_sequence(args.in_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, mask in enumerate(segment_sequence(seq, bg, threshold), start=1):
        write_pgm(out_dir / frame_filename(i), mask * np.uint8(255))
    _say(args, f"{len(seq)} silhouettes written to {out_dir}")
    return EXIT_OK


def cmd_cycles(args) -> int:
    signal = width_signal(bounding_boxes(_load_masks(args.in_dir)))
    period = estimate_period(signal)
    cycles = partition_cycles(signal, period)
    print(f"period_frames,{period}")
    for cycle in cycles:
        print(f"cycle,{cycle.start_frame},{cycle.end_frame}")
    print("frame,width")
    for i, w in enumerate(signal):
        print(f"{i},{w:g}")
    return EXIT_OK


def cmd_features(args) -> int:
    sequence = args.sequence or Path(args.in_dir).name
    pipeline.check_name(args.subject, "--subject")
    pipeline.check_name(sequence, "--sequence" if args.sequence else f"directory {args.in_dir}")
    pipeline.PipelineConfig(fps=args.fps).validate()  # a bad --fps fails before any frame is read
    masks = _load_masks(args.in_dir)
    row = pipeline.masks_feature_row(args.subject, sequence, masks, args.fps)
    pipeline.write_features_csv([row], args.out)
    _say(args, f"features for {args.subject}/{sequence} written to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    if Path(args.out).resolve() == Path(args.features).resolve():
        raise ValueError(f"--out {args.out} would overwrite --features {args.features}")
    flags = {key: getattr(args, key) for key in ("kernel", "c", "degree", "sigma")}
    cfg = pipeline.parse_config(args.config, flags)
    rows = pipeline.read_features_csv(args.features)
    model = pipeline.train_rows(rows, cfg.kernel_spec(), cfg)
    svm.save_model(model, args.out)
    _say(args, f"model with {len(model.binaries)} machines written to {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = svm.load_model(args.model)
    rows = pipeline.read_features_csv(args.features)
    predicted = svm.predict_many(model, pipeline.feature_matrix(rows))
    print("subject,sequence,predicted")
    for row, label in zip(rows, predicted):
        print(f"{row.subject},{row.sequence},{label}")
    return EXIT_OK


def _read_labels(path) -> list[str]:
    """Truth labels, one per non-blank line after an optional ``label``
    header; each must be a name that ``pipeline.check_name`` accepts."""
    numbered = enumerate(pipeline.read_ascii_lines(path), start=1)
    lines = [(n, ln.strip()) for n, ln in numbered if ln.strip()]
    if lines and lines[0][1].lower() == "label":
        lines = lines[1:]
    return [pipeline.check_name(label, f"{path} line {n}") for n, label in lines]


def cmd_evaluate(args) -> int:
    model = svm.load_model(args.model)
    rows = pipeline.read_features_csv(args.features)
    truth = _read_labels(args.labels) if args.labels else [r.subject for r in rows]
    if len(truth) != len(rows):
        raise LengthMismatch(f"{len(truth)} labels for {len(rows)} feature rows")
    cm, scores = pipeline.score_model(model, pipeline.feature_matrix(rows), truth)
    print("\n".join(pipeline.render_scores(cm, scores)))
    return EXIT_OK


def cmd_synth(args) -> int:
    kv = pipeline.read_kv_file(args.spec)
    if args.seed is not None:
        kv["seed"] = args.seed
    # spec keys: the WalkerSpec fields and the frame settings of generate
    walker = typing.get_type_hints(synthgait.WalkerSpec)
    hints = walker | typing.get_type_hints(synthgait.generate)
    del hints["spec"], hints["return"]
    typed = pipeline.typed_values(kv, hints, "walker spec")
    spec = synthgait.WalkerSpec(**{k: v for k, v in typed.items() if k in walker})
    seq, truth = synthgait.generate(spec, **{k: v for k, v in typed.items() if k not in walker})
    out_dir = Path(args.out)
    save_sequence(seq, out_dir)
    synthgait.write_truth_csv(truth, out_dir / "truth.csv")
    _say(args, f"{len(seq)} frames and truth.csv written to {out_dir}")
    return EXIT_OK


def _pipeline_config(args) -> pipeline.PipelineConfig:
    """The ``--config`` file's settings, if given, under the flags that are set."""
    overrides = {"data_dir": args.data, "out_dir": args.out, "seed": args.seed,
                 "split_seed": args.seed}
    return pipeline.parse_config(args.config, overrides)


def cmd_pipeline(args) -> int:
    result = pipeline.run_pipeline(_pipeline_config(args))
    _say(args, result.report)
    return EXIT_OK


def cmd_ablation(args) -> int:
    results = pipeline.run_ablation(_pipeline_config(args))
    if not args.quiet:
        print(pipeline.render_ablation(results), end="")
    return EXIT_OK


def cmd_kernel_sweep(args) -> int:
    results = pipeline.run_kernel_sweep(_pipeline_config(args))
    if not args.quiet:
        print(pipeline.render_sweep(results), end="")
    return EXIT_OK


def build_parser() -> _Parser:
    # one parent parser per shared flag, given only to the commands that read it
    quiet, config, seed = (_Parser(add_help=False) for _ in range(3))
    quiet.add_argument("--quiet", action="store_true", help="suppress progress output")
    config.add_argument("--config", help="flat key=value configuration file")
    seed.add_argument("--seed", type=int, help="override the seed")
    run = _Parser(add_help=False, parents=[quiet, config, seed])
    run.add_argument("--data", default=None, help="dataset root (subject/sequence dirs)")
    run.add_argument("--out", default=None, help="output directory")

    parser = _Parser(prog="gaitlock", description="gait-based walker identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("background", parents=[quiet], help="build a background model")
    p.add_argument("--technique", choices=TECHNIQUES, default="median")
    p.add_argument("--threshold", default="auto", help="auto or an integer (cdm only)")
    p.add_argument("--in", dest="in_dir", required=True, help="frame directory")
    p.add_argument("--out", required=True, help="output bg.pgm")
    p.set_defaults(func=cmd_background)

    p = sub.add_parser("segment", parents=[quiet], help="extract silhouettes")
    p.add_argument("--bg", required=True, help="background PGM")
    p.add_argument("--threshold", default="auto")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True, help="silhouette output directory")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("cycles", help="estimate the gait period")
    p.add_argument("--in", dest="in_dir", required=True, help="silhouette directory")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("features", parents=[quiet], help="extract the fused descriptor")
    p.add_argument("--in", dest="in_dir", required=True, help="silhouette directory")
    p.add_argument("--fps", type=float, default=pipeline.PipelineConfig.fps)
    p.add_argument("--out", required=True, help="output features.csv")
    p.add_argument("--subject", default="subject")
    p.add_argument("--sequence", default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", parents=[quiet, config], help="train the multi-class SVM")
    p.add_argument("--features", required=True)
    # unset flags fall back to the --config file, then to the pipeline defaults
    p.add_argument("--kernel", choices=svm.KERNELS)
    p.add_argument("--c", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="confusion matrix and measures")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", default=None, help="truth labels, one per line")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", parents=[quiet, seed], help="generate a synthetic walker")
    p.add_argument("--spec", required=True, help="walker spec key=value file")
    p.add_argument("--out", required=True, help="output frame directory")
    p.set_defaults(func=cmd_synth)

    for name, func, about in (("pipeline", cmd_pipeline, "end-to-end run"),
                              ("ablation", cmd_ablation, "per-feature-set accuracies"),
                              ("kernel-sweep", cmd_kernel_sweep, "best accuracy per kernel")):
        sub.add_parser(name, parents=[run], help=about).set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GaitlockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
