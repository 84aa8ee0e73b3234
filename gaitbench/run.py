"""gaitlock benchmark: run one workload through ``pipeline.run_pipeline``.

    python3 gaitbench/run.py --workload frames-median --seed 0 --seconds 25 --trace 0

Each run builds the workload's inputs from ``--seed`` (timed as set-up),
then calls ``run_pipeline`` in a closed loop for about ``--seconds``,
checking every call's outputs. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls and reports
the per-layer metrics, plus the spans in ``.gaitbench/<workload>-seed<n>/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin the BLAS pools before numpy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "gaitlock" / "__init__.py").is_file():
    sys.exit(f"gaitbench: no gaitlock sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import workloads
from tracer import (
    COUNT_METRICS,
    E2E_TARGETS,
    LAYER_TARGETS,
    ROOT as ROOT_SPAN,
    Tracer,
    durations,
    layer_metrics,
    patched,
)
from gaitlock import metrics, pipeline, svm

WORKLOADS = ("frames-median", "frames-cdm", "gallery")
BACKGROUND = {"frames-median": "median", "frames-cdm": "cdm"}
# set-up is timed at least SETUP_REPEATS times, and until SETUP_SECONDS are spent
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# four calls give the frames workloads 128 sequence samples, so p90 has 12 beyond it
MIN_CALLS = 4
MIN_ACCURACY = 0.85  # acceptance criterion 1
# relative to ROOT, so that report.txt, which records the paths, is the same in every checkout
WORK_DIR = Path(".gaitbench")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(workload: str, seed: int, work: Path) -> tuple[pipeline.PipelineConfig, list[float], list[str]]:
    """Write the inputs from scratch several times; the last copy is used."""
    inputs = work / "inputs"
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        if workload == "gallery":
            workloads.write_gallery(inputs / "gallery.csv", seed)
        else:
            workloads.write_frames(inputs, seed)
        times.append(time.perf_counter() - t0)
    problems = []
    out = str(work / "out")
    if workload == "gallery":
        return pipeline.PipelineConfig(features_csv=str(inputs / "gallery.csv"), out_dir=out), times, problems
    if seed == 0 and workloads.dataset_digest(inputs) != workloads.SEED0_FRAMES_SHA256:
        problems.append("seed-0 frames differ from the acceptance-suite benchmark")
    cfg = pipeline.PipelineConfig(data_dir=str(inputs), out_dir=out, background_technique=BACKGROUND[workload])
    return cfg, times, problems


class Loop:
    """Closed loop of checked ``run_pipeline`` calls on one input."""

    def __init__(self, workload: str, cfg: pipeline.PipelineConfig):
        self.workload = workload
        self.cfg = cfg
        self.outputs = ("model.svm", "report.txt") if workload == "gallery" else ("features.csv", "model.svm", "report.txt")
        self.digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.accuracy: list[float] = []

    def call(self, targets) -> tuple[float, Tracer, list[float], pipeline.PipelineResult] | None:
        """One checked call; None if it raised or its outputs failed a check.

        Returns the wall time, the tracer, the per-sequence times in ms and the result.
        """
        self.attempted += 1
        gc.collect()
        tracer = Tracer()
        try:
            with patched(tracer, targets):
                t0 = time.perf_counter()
                result = pipeline.run_pipeline(self.cfg)
                wall = time.perf_counter() - t0
            if self.workload == "gallery":
                sequence_ms = self.identify_each(result)
            else:
                sequence_ms = [1e3 * d for d in durations(tracer.spans, "pipeline.sequence_feature_row")]
            self.check(result)
        except Exception:  # a failed operation is counted, reported, and the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.accuracy.append(result.scores["accuracy"])
        tracer.counts["gaitcycle.period_match_ratio"] = self.period_match_ratio(result)
        return wall, tracer, sequence_ms, result

    def identify_each(self, result: pipeline.PipelineResult) -> list[float]:
        """Identify every probe on its own; the votes must rebuild the report's confusion matrix."""
        times, labels = [], []
        for row in result.test:
            t0 = time.perf_counter()
            labels.append(svm.predict_many(result.model, row.vector[None, :])[0])
            times.append(1e3 * (time.perf_counter() - t0))
        single = metrics.evaluate([r.subject for r in result.test], labels)
        if single.classes != result.confusion.classes or not np.array_equal(single.counts, result.confusion.counts):
            raise AssertionError("one-probe identification disagrees with the batch confusion matrix")
        return times

    def period_match_ratio(self, result: pipeline.PipelineResult) -> float:
        if self.workload == "gallery":
            return 0.0
        truth = workloads.true_periods()
        return sum(r.period == truth[r.subject] for r in result.rows) / len(result.rows)

    def check(self, result: pipeline.PipelineResult) -> None:
        out = Path(self.cfg.out_dir)
        digests = {name: sha256(out / name) for name in self.outputs}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise AssertionError(f"outputs changed between runs of one input: {digests} vs {self.digests}")
        if self.workload == "gallery":
            return
        if result.scores["accuracy"] < MIN_ACCURACY:
            raise AssertionError(f"accuracy {result.scores['accuracy']} below {MIN_ACCURACY}")
        if self.period_match_ratio(result) != 1.0:
            truth = workloads.true_periods()
            wrong = [(r.subject, r.sequence, r.period) for r in result.rows if r.period != truth[r.subject]]
            raise AssertionError(f"estimated periods differ from the generator: {wrong}")


def run_for(seconds: float, min_calls: int, step) -> None:
    """Call ``step(i)`` until the next call would end past ``seconds``."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= min_calls and elapsed + elapsed / i > seconds:
            return
        step(i)
        i += 1


def end_to_end(loop: Loop, setup_times: list[float], seconds: float) -> dict[str, float]:
    walls, enroll, identify, sequence_ms = [], [], [], []

    def step(_):
        sample = loop.call(E2E_TARGETS)
        if sample is None:
            return
        wall, tracer, seq_ms, result = sample
        walls.append(wall)
        sequence_ms.extend(seq_ms)
        # rows are extracted in dataset order, one sequence_feature_row span each
        row_s = dict(zip(
            ((r.subject, r.sequence) for r in result.rows),
            durations(tracer.spans, "pipeline.sequence_feature_row"),
        ))
        enroll.append(sum(durations(tracer.spans, "svm.train_multiclass"))
                      + sum(row_s.get((r.subject, r.sequence), 0.0) for r in result.train))
        identify.append(sum(durations(tracer.spans, "svm.predict_many"))
                        + sum(row_s.get((r.subject, r.sequence), 0.0) for r in result.test))

    run_for(seconds, MIN_CALLS, step)
    print(f"samples: run_s={len(walls)} sequence_ms={len(sequence_ms)} setup_s={len(setup_times)}")
    if not walls:
        return {}
    return {
        "setup_s": float(np.median(setup_times)),
        "run_s": float(np.median(walls)),
        "sequence_ms_p50": float(np.percentile(sequence_ms, 50)),
        "sequence_ms_p90": float(np.percentile(sequence_ms, 90)),
        "enroll_s": float(np.median(enroll)),
        "identify_s": float(np.median(identify)),
        "accuracy": float(np.median(loop.accuracy)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop: Loop, seconds: float, trace_path: Path) -> tuple[dict[str, float], list[str]]:
    """Alternate untraced and traced calls; per-layer medians over the traced ones."""
    plain, traced, layers, spans = [], [], [], []

    def step(i):
        sample = loop.call(LAYER_TARGETS if i % 2 else E2E_TARGETS)
        if sample is None:
            return
        wall, tracer, _, _ = sample
        if i % 2 == 0:
            plain.append(wall)
            return
        traced.append(wall)
        layers.append(layer_metrics(tracer.spans, tracer.counts))
        spans.append(tracer.spans)

    run_for(seconds, MIN_CALLS, step)
    print(f"samples: untraced={len(plain)} traced={len(traced)}")
    problems = []
    if not plain or not traced:
        return {}, problems
    for name in COUNT_METRICS:
        if len({layer[name] for layer in layers}) != 1:
            problems.append(f"count {name} differs between traced runs: {[layer[name] for layer in layers]}")
    out = {name: float(np.median([layer[name] for layer in layers])) for name in layers[0]}
    out["segmentation.largest_component.ms_per_frame"] = _per_unit(out, "segmentation.largest_component.s", "segmentation.frames")
    out["svm.train_binary.ms_per_machine"] = _per_unit(out, "svm.train_binary.s", "svm.train_binary.calls")
    out["svm.predict_many.ms_per_probe"] = _per_unit(out, "svm.predict_many.s", "svm.predictions")
    out["trace.overhead_s"] = float(np.median(traced) - np.median(plain))
    trace_path.write_text(json.dumps({
        "environment": environment(),
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "root": ROOT_SPAN,
        "runs": [{"run_s": w, "spans": _relative(s)} for w, s in zip(traced, spans)],
    }, separators=(",", ":")))
    return out, problems


def _relative(spans: list[list]) -> list[list]:
    """Spans with times in seconds from the first span's start, to 0.1 us."""
    t0 = spans[0][1]
    return [[name, round(start - t0, 7), round(end - t0, 7), parent] for name, start, end, parent in spans]


def _per_unit(out: dict[str, float], seconds_key: str, count_key: str) -> float:
    return 1e3 * out[seconds_key] / out[count_key] if out[count_key] else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    os.chdir(ROOT)
    declared = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    work = WORK_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("environment: " + json.dumps(environment()))
    try:
        cfg, setup_times, problems = set_up(args.workload, args.seed, work)
        loop = Loop(args.workload, cfg)
        if args.trace:
            values, count_problems = per_layer(loop, args.seconds, work / "trace.json")
            problems += count_problems
        else:
            values = end_to_end(loop, setup_times, args.seconds)
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)
        if not args.trace:  # only a traced run leaves a file: its spans
            shutil.rmtree(work, ignore_errors=True)
    if values and set(values) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("output sha256: " + json.dumps(loop.digests))
    print(json.dumps({
        "correct": loop.failed == 0 and not problems and bool(values),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
