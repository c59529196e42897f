"""The benchmark's tracer (perfbench/tracing.py) patches program callees by
name; these tests fail when a traced name or call signature moves."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import numpy.fft

import salientdeblur as sd
from salientdeblur import cli

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    targets = [(importlib.import_module("salientdeblur." + m), attr) for m, attr, _ in tracing.TARGETS]
    return targets + [(numpy.fft, attr) for attr in tracing.FFT_NAMES]


def test_install_patches_every_target_and_uninstall_restores_it():
    tracing = _load_tracing()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in _targets(tracing)]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, (owner.__name__, attr)
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, (owner.__name__, attr)


def test_traced_deblur_reports_levels_and_cg_budgets(tmp_path):
    tracing = _load_tracing()
    blurred = sd.synthesize(sd.test_chart(64), sd.kernel_preset("line-h", 3), noise_sigma=0.005, seed=1)
    sd.write_image(tmp_path / "b.png", blurred, bit_depth=16)
    argv = ["deblur", "--input", str(tmp_path / "b.png"), "--output", str(tmp_path / "r.png"),
            "--kernel-size", "3", "--inner-iters", "2"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.span("bench.op", cli.main)(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.dump())
    assert metrics["pipeline.levels"] == 1
    assert metrics["structure.tv_calls"] == 3
    assert metrics["kernel_est.cg_budget"] > 0 and metrics["deconv.cg_budget"] > 0
    assert metrics["deconv.final_cg_iters"] > 0
    assert metrics["core.fft_calls"] > 0
    assert np.isfinite(metrics["trace.wall_s"])
