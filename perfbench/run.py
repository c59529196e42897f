"""Deblurring benchmark: two workloads, timed end to end and traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload crop-rgb-cli --seed 1 --seconds 55 --trace 0

Each run makes its inputs from ``--seed``, times the fresh-interpreter import
of ``salientdeblur`` several times (``setup_s``), then runs operations as a
closed loop with one client until ``--seconds`` have passed.  Every
operation runs in a fresh interpreter (``worker.py``) and every output is
checked with the benchmark's own scorer (``score.py``).  With ``--trace 1``
each round pairs an untraced and a traced operation on one input, and the
per-layer metrics come from the traced ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# One BLAS thread here and in every operation, set before numpy loads: with
# the default pool of one thread per core, the idle worker spins between the
# solvers' small BLAS calls, so a process holds both cores of a 2-core host
# and its timings follow the scheduler; the last bits of the results also
# follow the thread count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import score  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh-interpreter imports timed before and again after the operations.
SETUP_SAMPLES = 5
# Every process is killed past this point, so a run ends within 180 s.
RUN_LIMIT_S = 170.0
# Per-layer counts that must repeat exactly between traced operations.
COUNTS = ("core.fft_calls", "kernel_est.cg_iters", "kernel_est.cg_budget",
          "deconv.interim_cg_iters", "deconv.final_cg_iters", "deconv.cg_budget")


class Workload:
    """Inputs, the job for one operation, and the checks on its outputs.

    A round runs one operation on each of ``realizations`` inputs, which
    differ only in their noise; quality metrics are means over a round, so
    more realizations narrow their seed-to-seed spread.
    """

    realizations: int

    def prepare(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def job(self, out: Path, r: int) -> dict:
        raise NotImplementedError

    def check(self, out: Path, r: int) -> dict:
        """Raise ScoreError on a wrong output; return ssde, error_ratio, psnr_db."""
        raise NotImplementedError


class CropRgbCli(Workload):
    """``salientdeblur deblur --crop`` on a 319 RGB PNG, 15 L-curve kernel."""

    realizations = 2
    size, preset, ksize = 319, "l-curve", 15
    crop = (80, 80, 160, 160)

    def prepare(self, seed, work):
        self.sharp = inputs.rgb_scene(self.size)
        self.k_true = inputs.kernel(self.preset, self.ksize)
        self.blurred = [inputs.quantize(inputs.blurred(self.sharp, self.k_true, [seed, r]), 8)
                        for r in range(self.realizations)]
        for r, img in enumerate(self.blurred):
            inputs.write_png(work / ("blurred%d.png" % r), img, 8)
        self.work = work

    def job(self, out, r):
        return {"argv": ["deblur", "--input", str(self.work / ("blurred%d.png" % r)),
                         "--output", str(out / "restored.png"), "--kernel-out", str(out / "kernel.txt"),
                         "--kernel-size", str(self.ksize), "--crop", ",".join(map(str, self.crop))]}

    def check(self, out, r):
        score.read_png(out / "kernel.png")
        k = score.read_kernel_text(out / "kernel.txt")
        q = score.score_kernel(k, self.k_true, self.blurred[r], self.sharp)
        psnr = score.score_restoration(score.read_png(out / "restored.png"), self.blurred[r],
                                       self.sharp, q["shift"], self.ksize)
        return {"ssde": q["ssde"], "error_ratio": q["error_ratio"], "psnr_db": psnr}


class EvalMatrix(Workload):
    """``salientdeblur eval`` over a directory of small 16-bit gray cases.

    ``eval`` writes scores but no images, so ``psnr_db`` here is the PSNR of
    the scorer's fixed deconvolution with each estimated kernel.
    """

    # Three realizations of three cases: the box case's SSDE moves up to 40x
    # between noise seeds, and in the time a fourth case (line-h 11) would
    # take, a third realization narrows the spread of the mean more.
    realizations = 3
    # (size, preset, kernel size)
    cases = ((127, "line-d", 9), (127, "box", 13), (127, "l-curve", 13))

    def prepare(self, seed, work):
        self.work = work
        self.truth = [[] for _ in range(self.realizations)]
        for r in range(self.realizations):
            for i, (size, preset, ksize) in enumerate(self.cases):
                case = work / ("cases%d" % r) / ("case%d_%d_%s_%d" % (i, size, preset, ksize))
                case.mkdir(parents=True)
                sharp = inputs.chart(size)
                k = inputs.kernel(preset, ksize)
                blurred = inputs.quantize(inputs.blurred(sharp, k, [seed, i, r]), 16)
                inputs.write_png(case / "blurred.png", blurred, 16)
                inputs.write_png(case / "sharp.png", sharp, 16)
                inputs.write_kernel_text(case / "kernel_true.txt", k)
                self.truth[r].append((case.name, k, blurred, sharp))

    def job(self, out, r):
        return {"argv": ["eval", "--input", str(self.work / ("cases%d" % r)),
                         "--output", str(out / "report.csv")], "capture": True}

    def check(self, out, r):
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [row["case"] for row in rows] != [t[0] for t in self.truth[r]]:
            raise score.ScoreError("eval CSV rows %s do not match the cases"
                                   % [row["case"] for row in rows])
        scores = []
        for i, (row, (_, k_true, blurred, sharp)) in enumerate(zip(rows, self.truth[r])):
            q = score.score_kernel(np.load(out / ("captured_%03d.npy" % i)), k_true, blurred, sharp)
            reported = float(row["ssde"])
            if abs(reported - q["ssde"]) > 1e-4 * max(reported, q["ssde"]) + 1e-12:
                raise score.ScoreError("eval CSV ssde %g for %s, rescored %g"
                                       % (reported, row["case"], q["ssde"]))
            scores.append(q)
        return {"ssde": float(np.mean([q["ssde"] for q in scores])),
                "error_ratio": float(np.mean([q["error_ratio"] for q in scores])),
                "psnr_db": float(np.mean([q["fixed_psnr_db"] for q in scores]))}


WORKLOADS = {"crop-rgb-cli": CropRgbCli, "eval-matrix": EvalMatrix}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd, log: Path, timeout: float):
    """Run a process to its end; returns (exit code, wall s, cpu s)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh, stderr=fh)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime


def time_imports(work: Path, samples: int, timeout: float) -> list:
    """Wall times of fresh interpreters importing the package."""
    cmd = [sys.executable, "-c", "import salientdeblur"]
    times = []
    for _ in range(samples):
        code, wall, _ = run_child(cmd, work / "setup.log", timeout)
        if code != 0:
            raise RuntimeError("importing salientdeblur failed:\n" + (work / "setup.log").read_text())
        times.append(wall)
    return times


def run_op(workload: Workload, work: Path, r: int, traced: bool, timeout: float) -> dict:
    out = Path(tempfile.mkdtemp(prefix="op-", dir=work))
    job = {"trace": traced, "capture": False, "out": str(out), "src": str(SRC)}
    job.update(workload.job(out, r))
    (out / "job.json").write_text(json.dumps(job))
    code, wall, cpu = run_child([sys.executable, str(HERE / "worker.py"), str(out / "job.json")],
                                out / "log.txt", timeout)
    op = {"out": out, "r": r, "code": code, "wall_s": wall, "cpu_s": cpu, "traced": traced}
    if code == 0:
        inner = json.loads((out / "result.json").read_text())
        op["code"], op["inner_wall_s"] = inner["code"], inner["wall_s"]
        op["peak_rss_mb"] = inner["peak_rss_mb"]
    return op


def declared_metrics() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "salientdeblur" / "__init__.py").is_file():
        print("error: no salientdeblur sources under %s" % SRC, file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    score.self_check()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        time_imports(work, 1, remaining())  # fills the bytecode cache of a fresh checkout
        setup = [] if args.trace else time_imports(work, SETUP_SAMPLES, remaining())
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, work)
        ops = run_rounds(workload, work, args, remaining)
        if not args.trace:
            setup += time_imports(work, SETUP_SAMPLES, remaining())
        done = [op for op in ops if op["code"] == 0]
        if args.trace:
            values, units = traced_metrics(done, args.workload), per_layer
        else:
            values, units = end_to_end_metrics(done, setup), end_to_end
        if set(values) != set(units):
            raise AssertionError("metrics %s do not match BENCHMARK.json %s"
                                 % (sorted(values), sorted(units)))
        print(json.dumps({
            "correct": all(op.get("correct", True) for op in done),
            "attempted": len(ops),
            "failed": len(ops) - len(done),
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_rounds(workload: Workload, work: Path, args, remaining) -> list:
    """Closed loop, one client: at least one whole round, and another
    while the longest round so far still ends within ``args.seconds``, so
    a run lasts about ``args.seconds`` whether a round takes 15 s or 40 s.
    A traced round pairs an untraced and a traced operation on the first
    input."""
    round_ops = [(r, False) for r in range(workload.realizations)]
    if args.trace:
        round_ops = [(0, False), (0, True)]
    ops = []
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while not ops or time.perf_counter() + longest <= deadline:
        round_start = time.perf_counter()
        for r, traced in round_ops:
            op = run_op(workload, work, r, traced, remaining())
            op["round"] = len(ops) // len(round_ops)
            ops.append(op)
            if op["code"] != 0:
                print("operation failed with exit code %d:\n%s"
                      % (op["code"], (op["out"] / "log.txt").read_text()[-4000:]), file=sys.stderr)
                continue
            try:
                op.update(workload.check(op["out"], r))
            except (score.ScoreError, OSError, ValueError) as exc:
                op["correct"] = False
                print("incorrect output: %s" % exc, file=sys.stderr)
            print("op %d: input %d traced %d wall %.3f s cpu %.3f s"
                  % (len(ops), r, traced, op["wall_s"], op["cpu_s"]), file=sys.stderr)
        longest = max(longest, time.perf_counter() - round_start)
    return ops


def end_to_end_metrics(done: list, setup: list) -> dict:
    """Medians over operations; quality is a round's mean, then the median."""
    values = {k: statistics.median(op[k] for op in done) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    rounds = {}
    for op in done:
        if "ssde" in op:
            rounds.setdefault(op["round"], []).append(op)
    if not rounds:
        raise RuntimeError("no operation produced a correct output")
    for k in ("ssde", "error_ratio", "psnr_db"):
        values[k] = statistics.median(statistics.fmean(op[k] for op in group)
                                      for group in rounds.values())
    values["setup_s"] = statistics.median(setup)
    return values


def traced_metrics(done: list, name: str) -> dict:
    """Per-layer medians over the traced operations, and the tracing overhead."""
    plain = [op for op in done if not op["traced"]]
    traced = [op for op in done if op["traced"]]
    if not plain or not traced:
        raise RuntimeError("a traced run needs an untraced and a traced operation that succeed")
    layers = [tracing.layer_metrics(json.loads((op["out"] / "trace.json").read_text()))
              for op in traced]
    if any(layers[0][k] != other[k] for other in layers for k in COUNTS):
        raise AssertionError("trace: counts differ between traced operations")
    shutil.copy(traced[-1]["out"] / "trace.json", WORK / ("trace-%s.json" % name))
    values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    values["trace.overhead"] = (statistics.median(op["inner_wall_s"] for op in traced)
                                / statistics.median(op["inner_wall_s"] for op in plain) - 1.0)
    return values


if __name__ == "__main__":
    raise SystemExit(main())
