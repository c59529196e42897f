import argparse
from dataclasses import fields

import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur import pipeline
from salientdeblur.cli import build_parser, main
from salientdeblur.fileio import _png_chunk

from oracles import check_kernel


def run(argv):
    return main(argv)


class TestHelp:
    @pytest.mark.parametrize("command", ["deblur", "estimate-kernel", "deconv", "structure", "synth", "eval"])
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "--input" in out

    def test_deblur_help_documents_overrides(self, capsys):
        with pytest.raises(SystemExit):
            run(["deblur", "--help"])
        out = capsys.readouterr().out
        for flag in ("--kernel-size", "--crop", "--gamma", "--lambda-c", "--config"):
            assert flag in out

    def test_every_config_field_has_a_flag_of_its_type(self):
        parser = build_parser()
        base = sd.DeblurConfig(kernel_size=7)
        for f in fields(base):
            default = getattr(base, f.name)
            if f.name == "kernel_size":
                args = parser.parse_args(["deblur", "--input", "a", "--output", "b", "--kernel-size", "9"])
                assert args.kernel_size == 9
            else:
                args = parser.parse_args(["deblur", "--input", "a", "--output", "b",
                                          "--" + f.name.replace("_", "-"), "3"])
                value = getattr(args, f.name)
                assert value == 3
                assert type(value) is (float if default is None else type(default))

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run([])
        assert info.value.code == 2


_OVERRIDES = {f.name for f in fields(sd.DeblurConfig)} - {"kernel_size"}  # --kernel-size is not an override


def _offered(command) -> set:
    """The config fields a subcommand takes an override flag for."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subparsers.choices[command]._actions} & _OVERRIDES


def _config_reads(monkeypatch, argv) -> set:
    """The config fields one successful run reads, outside the checks a
    ``DeblurConfig`` runs when it is made."""
    reads, validating = set(), []
    check = sd.DeblurConfig.__post_init__

    def recording_check(self):
        validating.append(True)
        try:
            check(self)
        finally:
            validating.pop()

    def recording_getattribute(self, name):
        if name in _OVERRIDES and not validating:
            reads.add(name)
        return object.__getattribute__(self, name)

    with monkeypatch.context() as m:
        m.setattr(sd.DeblurConfig, "__post_init__", recording_check)
        m.setattr(sd.DeblurConfig, "__getattribute__", recording_getattribute)
        assert run(argv) == 0
    return reads


@pytest.fixture(scope="module")
def small_case(tmp_path_factory):
    """A dataset holding one 64² case blurred by a 5² kernel."""
    root = tmp_path_factory.mktemp("small")
    case = root / "ds" / "case"
    case.mkdir(parents=True)
    sharp, kernel = sd.test_chart(64), sd.kernel_preset("line-d", 5)
    sd.write_image(case / "blurred.png", sd.synthesize(sharp, kernel, noise_sigma=0.005, seed=3), bit_depth=16)
    sd.write_image(case / "sharp.png", sharp, bit_depth=16)
    sd.write_kernel(case / "kernel_true.txt", kernel)
    return root


@pytest.mark.parametrize("command", ["deblur", "estimate-kernel", "eval", "deconv", "structure"])
def test_override_flags_are_the_fields_the_command_reads(command, small_case, monkeypatch, capsys):
    # a field read without its flag, or a flag whose field is never read, fails
    case = small_case / "ds" / "case"
    image, kernel, out = str(case / "blurred.png"), str(case / "kernel_true.txt"), str(small_case / "out")
    runs = {
        "deblur": [["--input", image, "--output", out + ".png", "--kernel-size", "5"]],
        "estimate-kernel": [["--input", image, "--output", out + ".txt", "--kernel-size", "5"]],
        "eval": [["--input", str(small_case / "ds"), "--kernel-size", "5"]],
        "deconv": [["--input", image, "--kernel", kernel, "--output", out + ".png"]],
        "structure": [["--input", image, "--output", out]],
    }[command]
    reads = set()
    for argv in runs:
        reads |= _config_reads(monkeypatch, [command] + argv)
    assert _offered(command) == reads


_REQUIRED = {
    "estimate-kernel": ["--input", "b.png", "--output", "k.txt"],
    "eval": ["--input", "ds"],
    "deconv": ["--input", "b.png", "--kernel", "k.txt", "--output", "r.png"],
    "structure": ["--input", "b.png", "--output", "s"],
}


@pytest.mark.parametrize("command, flag", [
    ("estimate-kernel", "--lambda-final"),
    ("eval", "--lambda-final"),
    ("deconv", "--gamma"), ("deconv", "--alpha"), ("deconv", "--inner-iters"), ("deconv", "--decay"),
    ("deconv", "--mu"), ("deconv", "--lambda-c"), ("deconv", "--kernel-size"), ("deconv", "--method"),
    ("structure", "--lambda-c"), ("structure", "--lambda-final"), ("structure", "--gamma"),
    ("structure", "--alpha"), ("structure", "--inner-iters"), ("structure", "--decay"), ("structure", "--mu"),
])
def test_unread_override_is_usage_error(command, flag, capsys):
    # these were parsed and range-checked, and then the command never read
    # them; deconv's --lambda-c and --method picked the TV restoration, and
    # its kernel file fixes the kernel size
    with pytest.raises(SystemExit) as info:
        run([command] + _REQUIRED[command] + [flag, "3"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: %s" % flag in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--mu", "0.02"], ["--theta0", "-5", "--gamma", "1e9", "--window", "4"],
                                   ["--threshold", "0.1"]], ids=["mu", "three", "threshold"])
def test_eval_override_without_config_exit_2(flags, small_case, tmp_path, capsys):
    # each case ran its default config: the flags were dropped unread, even out-of-range ones
    csv_path = tmp_path / "report.csv"
    rc = run(["eval", "--input", str(small_case / "ds"), "--output", str(csv_path)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: eval: override flags need --config or --kernel-size: " in err and "Traceback" not in err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not csv_path.exists()


_BAD_KERNEL_FILES = {
    "ragged": "3 3\n0 0 0\n0 1\n0 0 0\n",          # a raw ValueError and a traceback
    "extra-row": "3 3\n0 0 0\n0 1 0\n0 0 0\n1 1 1\n",  # the last row was dropped
    "negative": "3 3\n0 0 0\n-0.5 1 0\n0 0 0\n",   # deconv and eval clamped it to zero
    "zero-sum": "3 3\n0 0 0\n0 0 0\n0 0 0\n",      # deconv restored with the identity kernel
}


@pytest.mark.parametrize("case", sorted(_BAD_KERNEL_FILES))
@pytest.mark.parametrize("command", ["deconv", "synth", "eval"])
def test_bad_kernel_file_exit_2(command, case, tmp_path, capsys):
    case_dir = tmp_path / "ds" / "case"
    case_dir.mkdir(parents=True)
    kpath = case_dir / "kernel_true.txt"
    kpath.write_text(_BAD_KERNEL_FILES[case])
    chart, out = sd.test_chart(64), tmp_path / "out.png"
    sd.write_image(case_dir / "blurred.png", chart)
    sd.write_image(case_dir / "sharp.png", chart)
    argv = {"deconv": ["--input", str(case_dir / "blurred.png"), "--kernel", str(kpath), "--output", str(out)],
            "synth": ["--chart", "64", "--kernel", str(kpath), "--output", str(out)],
            "eval": ["--input", str(tmp_path / "ds"), "--output", str(out)]}[command]
    assert run([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(kpath) in err and "Traceback" not in err
    assert not out.exists()


def _flip_byte(blob: bytes, at: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :]


# each made from a valid chart PNG
_BAD_IMAGE_FILES = {
    # a raw zlib.error
    "png-corrupt-idat": lambda png: _flip_byte(png, png.index(b"IDAT") + 40),
    "png-cut-in-half": lambda png: png[: len(png) // 2],
    # an empty image, and an IndexError in the structure step
    "png-0x0": lambda png: png[:16] + bytes(8) + png[24:],
    # a raw struct.error
    "png-short-header": lambda png: png[:8] + _png_chunk(b"IHDR", png[16:28]) + png[33:],
    # a raw ValueError: buffer is smaller than requested size
    "pgm-short": lambda png: b"P5\n8 8\n255\n" + bytes(40),
    # a raw ValueError: invalid literal for int()
    "pgm-ascii-not-a-number": lambda png: b"P2\n2 2\n255\n0 1 x 3\n",
    # an all-NaN image
    "pgm-maxval-0": lambda png: b"P2\n2 2\n0\n0 0 0 0\n",
    # an empty image
    "pgm-0x0": lambda png: b"P5\n0 0\n255\n",
    # samples above maxval and below 0: structure wrote its three maps
    "pgm-ascii-out-of-range": lambda png: b"P2\n2 2\n255\n0 300 -5 3\n",
    "ppm-ascii-above-maxval": lambda png: b"P3\n1 1\n15\n0 16 3\n",
    "pgm-binary-above-maxval": lambda png: b"P5\n2 2\n100\n" + bytes([0, 200, 5, 3]),
}


@pytest.mark.parametrize("case", sorted(_BAD_IMAGE_FILES))
def test_bad_image_file_exit_2(case, tmp_path, capsys):
    png = tmp_path / "chart.png"
    sd.write_image(png, sd.test_chart(64))
    bad = tmp_path / ("bad." + case[:3])
    bad.write_bytes(_BAD_IMAGE_FILES[case](png.read_bytes()))
    png.unlink()
    assert run(["structure", "--input", str(bad), "--output", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: load: ") and str(bad) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [bad]


class TestErrors:
    def test_repeated_config_key_exit_2(self, tmp_path, capsys):
        # the last value won
        cfg, img = tmp_path / "cfg.txt", tmp_path / "img.png"
        cfg.write_text("kernel_size = 7\ntheta0 = 1\n\ntheta0 = 2\n")
        sd.write_image(img, sd.test_chart(64))
        rc = run(["structure", "--input", str(img), "--output", str(tmp_path / "s"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: config: key 'theta0' given twice, on lines 2 and 4" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "img.png"]

    def test_missing_input_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.png"
        rc = run(["deblur", "--input", str(missing), "--output", str(tmp_path / "o.png"),
                  "--kernel-size", "9"])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_degenerate_kernel_fit_exit_1(self, tmp_path, capsys, monkeypatch):
        # the fit went on from the identity kernel and deblur exited 0
        from salientdeblur import kernel_est

        img, out = tmp_path / "img.png", tmp_path / "o.png"
        sd.write_image(img, sd.test_chart(64))
        monkeypatch.setattr(kernel_est, "cg_solve", lambda apply_a, b, iters: np.zeros_like(b))
        assert run(["deblur", "--input", str(img), "--output", str(out), "--kernel-size", "9"]) == 1
        err = capsys.readouterr().err
        assert "degenerate kernel iterate" in err and "Traceback" not in err
        assert not out.exists()

    def test_textureless_image_exit_1(self, tmp_path, capsys):
        flat = tmp_path / "flat.png"
        sd.write_image(flat, np.full((64, 64), 0.5))
        rc = run(["deblur", "--input", str(flat), "--output", str(tmp_path / "o.png"),
                  "--kernel-size", "9"])
        assert rc == 1
        assert "structure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--decay", "1e100"], ["--inner-iters", "10000"], ["--theta0", "1e-320"]],
                             ids=["decay", "inner-iters", "theta0"])
    def test_theta_schedule_out_of_float_range_exit_2(self, flags, tmp_path, capsys):
        # the first two ended in a raw OverflowError, the third ran with RuntimeWarnings
        img = tmp_path / "b.png"
        sd.write_image(img, sd.test_chart(64))
        out = tmp_path / "k.txt"
        rc = run(["estimate-kernel", "--input", str(img), "--output", str(out), "--kernel-size", "15"] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: config: theta0 / decay" in err and "Traceback" not in err
        assert not out.exists()

    def test_threshold_above_every_gradient_exit_1_names_thresholds(self, tmp_path, capsys):
        # a gradient of a [0, 1] image is at most sqrt(2), below 50 / 2 ** 5
        img = tmp_path / "b.png"
        sd.write_image(img, sd.test_chart(64))
        assert run(["structure", "--input", str(img), "--output", str(tmp_path / "m"), "--threshold", "50"]) == 1
        assert "no salient edges at any threshold from 50 down to 1.5625" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("no_such_key = 3\n")
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        rc = run(["structure", "--input", str(img), "--output", str(tmp_path / "s"),
                  "--config", str(cfg)])
        assert rc == 2
        assert "no_such_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("cg_iters_final", "50"), ("mask_rule", "magnitude"), ("itr", "2"),
    ])
    def test_solver_budget_config_key_exit_2(self, key, value, tmp_path, capsys):
        # solver budgets are fixed in their solvers, and removed tunables are
        # fixed in the method; neither is a config key
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kernel_size = 7\n%s = %s\n" % (key, value))
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        rc = run(["deblur", "--input", str(img), "--output", str(tmp_path / "o.png"),
                  "--config", str(cfg)])
        assert rc == 2
        assert "unknown key %r" % key in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--tv-iters", "40"), ("--mask-rule", "magnitude"), ("--itr", "2"),
    ])
    def test_solver_budget_flag_is_usage_error(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["deblur", "--input", str(tmp_path / "a.png"), "--output", str(tmp_path / "o.png"),
                 "--kernel-size", "7", flag, value])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["kernel", "config"])
    def test_file_that_is_not_text_exit_2(self, which, tmp_path, capsys):
        # a raw UnicodeDecodeError escaped both readers
        img, kernel, bad = tmp_path / "img.png", tmp_path / "k.txt", tmp_path / "bad.txt"
        sd.write_image(img, sd.test_chart(64))
        sd.write_kernel(kernel, sd.kernel_preset("box", 5))
        bad.write_bytes(b"5 5\n\x80\xff\n")
        argv = ["deconv", "--input", str(img), "--output", str(tmp_path / "o.png"),
                "--kernel", str(bad if which == "kernel" else kernel)]
        if which == "config":
            argv += ["--config", str(bad)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_non_finite_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kernel_size = 7\nmu = nan\n")
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        rc = run(["estimate-kernel", "--input", str(img), "--output", str(tmp_path / "k.txt"),
                  "--config", str(cfg)])
        assert rc == 2
        assert "error: config: mu" in capsys.readouterr().err

    def test_empty_crop_exit_2(self, tmp_path, capsys):
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(128))
        rc = run(["estimate-kernel", "--input", str(img), "--output", str(tmp_path / "k.txt"),
                  "--kernel-size", "7", "--crop", "0,0,0,96"])
        assert rc == 2
        assert "error: crop:" in capsys.readouterr().err

    def test_missing_kernel_size_exit_2(self, tmp_path):
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        rc = run(["deblur", "--input", str(img), "--output", str(tmp_path / "o.png")])
        assert rc == 2

    def test_bad_crop_spec_exit_2(self, tmp_path):
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        rc = run(["deblur", "--input", str(img), "--output", str(tmp_path / "o.png"),
                  "--kernel-size", "7", "--crop", "1,2,3"])
        assert rc == 2


class TestSynth:
    def test_reproducible_with_seed(self, tmp_path):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        for target in (a, b):
            rc = run(["synth", "--chart", "96", "--preset", "line-h", "--kernel-size", "7",
                      "--noise-sigma", "0.01", "--seed", "11", "--output", str(target)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_noise(self, tmp_path):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        run(["synth", "--chart", "96", "--noise-sigma", "0.01", "--seed", "1", "--output", str(a)])
        run(["synth", "--chart", "96", "--noise-sigma", "0.01", "--seed", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_input_image_source(self, tmp_path):
        sharp = tmp_path / "sharp.png"
        sd.write_image(sharp, sd.test_chart(64), bit_depth=16)
        out = tmp_path / "b.png"
        rc = run(["synth", "--input", str(sharp), "--preset", "box", "--kernel-size", "5",
                  "--noise-sigma", "0.01", "--seed", "2", "--output", str(out)])
        assert rc == 0
        blurred = sd.synthesize(sd.read_image(sharp), sd.kernel_preset("box", 5), noise_sigma=0.01, seed=2)
        sd.write_image(tmp_path / "expected.png", blurred, bit_depth=16)
        assert out.read_bytes() == (tmp_path / "expected.png").read_bytes()

    def test_kernel_file_input(self, tmp_path):
        kpath = tmp_path / "k.txt"
        sd.write_kernel(kpath, sd.kernel_preset("box", 5))
        rc = run(["synth", "--chart", "72", "--kernel", str(kpath), "--output", str(tmp_path / "b.png")])
        assert rc == 0

    def test_even_sided_kernel_file_is_projected(self, tmp_path):
        # a 4x2 file: synthesize refused its even sides with exit 2
        kpath, out, kout = tmp_path / "k.txt", tmp_path / "b.png", tmp_path / "k_out.txt"
        kpath.write_text("2 4\n1 0\n2 0\n1 1\n0 3\n")
        rc = run(["synth", "--chart", "64", "--kernel", str(kpath), "--output", str(out), "--kernel-out", str(kout)])
        assert rc == 0
        kernel, _ = sd.project_kernel(sd.read_kernel(kpath))
        assert kernel.shape == (5, 3)
        assert np.array_equal(sd.read_kernel(kout), kernel)
        expected = tmp_path / "expected.png"
        sd.write_image(expected, sd.synthesize(sd.test_chart(64), kernel), bit_depth=16)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("extra", [["--preset", "box"], ["--kernel-size", "9"], ["--preset", "line-d"]])
    def test_kernel_file_with_preset_flag_exit_2(self, tmp_path, capsys, extra):
        # the preset flags were dropped: the output equalled the kernel file's alone
        kpath, out = tmp_path / "k.txt", tmp_path / "b.png"
        sd.write_kernel(kpath, sd.kernel_preset("box", 5))
        rc = run(["synth", "--chart", "64", "--kernel", str(kpath), "--output", str(out)] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: synth: --kernel takes the kernel from its file" in err and "Traceback" not in err
        assert not out.exists()

    def test_input_and_chart_exit_2(self, tmp_path, capsys):
        # --chart was dropped: the output had the input's size
        src, out = tmp_path / "s.png", tmp_path / "b.png"
        sd.write_image(src, sd.test_chart(64))
        with pytest.raises(SystemExit) as info:
            run(["synth", "--input", str(src), "--chart", "128", "--output", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_kernel_size_exit_2(self, tmp_path, capsys):
        # 0 fell back to the default size 15
        out = tmp_path / "b.png"
        rc = run(["synth", "--chart", "64", "--kernel-size", "0", "--output", str(out)])
        assert rc == 2
        assert "kernel size" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_source(self, tmp_path):
        rc = run(["synth", "--output", str(tmp_path / "b.png")])
        assert rc == 2

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.01"])
    def test_bad_noise_sigma_exit_2(self, tmp_path, capsys, sigma):
        # nan wrote the noiseless image and inf a saturated one, both with exit 0
        out = tmp_path / "b.png"
        rc = run(["synth", "--chart", "64", "--noise-sigma", sigma, "--output", str(out)])
        assert rc == 2
        assert "noise sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_kernel_weight_exit_2(self, tmp_path, capsys):
        # wrote a sharpened image with exit 0
        kpath, out = tmp_path / "k.txt", tmp_path / "b.png"
        kpath.write_text("3 3\n0 0 0\n-1 3 0\n0 0 0\n")
        rc = run(["synth", "--chart", "64", "--kernel", str(kpath), "--output", str(out)])
        assert rc == 2
        assert "error: kernel: weights must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # printed a traceback and exited 1
        out = tmp_path / "b.png"
        rc = run(["synth", "--chart", "64", "--noise-sigma", "0.01", "--seed", "-1", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: synth: seed" in err and "Traceback" not in err
        assert not out.exists()


class TestStructureCommand:
    def test_writes_three_maps(self, tmp_path, capsys):
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(96))
        rc = run(["structure", "--input", str(img), "--output", str(tmp_path / "out")])
        assert rc == 0
        for suffix in ("_structure.png", "_mask.png", "_edges.png"):
            assert (tmp_path / ("out" + suffix)).is_file()
        mask = sd.read_image(tmp_path / "out_mask.png")
        assert set(np.unique(mask)) <= {0.0, 1.0}

    @pytest.mark.parametrize("threshold", [None, 0.0], ids=["adaptive", "zero"])
    def test_mask_is_the_selected_edges(self, tmp_path, threshold):
        # the mask marks the edges that the kernel fit uses
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        flags = [] if threshold is None else ["--threshold", str(threshold)]
        assert run(["structure", "--input", str(img), "--output", str(tmp_path / "out")] + flags) == 0
        cfg = sd.DeblurConfig(kernel_size=15, threshold=threshold)
        _, _, t, grad_s = pipeline.structure_pass(sd.read_image(img), cfg)
        mask = sd.read_image(tmp_path / "out_mask.png") == 1.0
        assert np.array_equal(mask, np.hypot(grad_s.gx, grad_s.gy) >= t)
        if threshold is None:
            assert t > 0 and np.array_equal(mask, (grad_s.gx != 0) | (grad_s.gy != 0))


class TestDeconvCommand:
    def test_restored_beats_blurred(self, tmp_path):
        chart = sd.test_chart(96)
        kernel = sd.kernel_preset("line-h", 7)
        blurred = sd.synthesize(chart, kernel, noise_sigma=0.005, seed=4)
        bpath = tmp_path / "b.png"
        kpath = tmp_path / "k.txt"
        sd.write_image(bpath, blurred, bit_depth=16)
        sd.write_kernel(kpath, kernel)
        out = tmp_path / "r.png"
        rc = run(["deconv", "--input", str(bpath), "--kernel", str(kpath), "--output", str(out)])
        assert rc == 0
        restored = sd.read_image(out)
        assert sd.psnr(restored, chart) > sd.psnr(blurred, chart)

    @pytest.mark.parametrize("color", [False, True], ids=["gray", "rgb"])
    def test_adaptive_is_restore_from_the_latent(self, tmp_path, color):
        chart = sd.test_chart(64)
        kernel = sd.kernel_preset("line-d", 5)
        sharp = np.dstack([chart, 1.0 - chart, 0.5 * chart]) if color else chart
        bpath, kpath = tmp_path / "b.png", tmp_path / "k.txt"
        sd.write_image(bpath, sd.synthesize(sharp, kernel, noise_sigma=0.005, seed=6))
        sd.write_kernel(kpath, kernel)
        out = tmp_path / "r.png"
        assert run(["deconv", "--input", str(bpath), "--kernel", str(kpath), "--output", str(out)]) == 0
        k, _ = sd.project_kernel(sd.read_kernel(kpath))
        restored, _ = sd.restore(sd.read_image(bpath), k, sd.DeblurConfig(kernel_size=5))
        sd.write_image(tmp_path / "expected.png", restored)
        assert out.read_bytes() == (tmp_path / "expected.png").read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_kernel_file_exit_2(self, tmp_path, capsys, bad):
        bpath = tmp_path / "b.png"
        kpath = tmp_path / "k.txt"
        sd.write_image(bpath, sd.test_chart(64))
        kpath.write_text("3 3\n0 0 0\n0 %s 0\n0 0 0\n" % bad)
        rc = run(["deconv", "--input", str(bpath), "--kernel", str(kpath),
                  "--output", str(tmp_path / "r.png")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "load:" in err and str(kpath) in err
        assert not (tmp_path / "r.png").exists()


class TestEndToEnd:
    def test_synth_deblur_eval(self, tmp_path, capsys):
        case = tmp_path / "ds" / "case1"
        case.mkdir(parents=True)
        rc = run(["synth", "--chart", "96", "--preset", "line-h", "--kernel-size", "7",
                  "--noise-sigma", "0.01", "--seed", "5",
                  "--output", str(case / "blurred.png"),
                  "--kernel-out", str(case / "kernel_true.txt"),
                  "--sharp-out", str(case / "sharp.png")])
        assert rc == 0
        rc = run(["deblur", "--input", str(case / "blurred.png"),
                  "--output", str(tmp_path / "restored.png"), "--kernel-size", "7"])
        assert rc == 0
        assert (tmp_path / "restored_kernel.txt").is_file()
        assert (tmp_path / "restored_kernel.png").is_file()
        csv_path = tmp_path / "report.csv"
        rc = run(["eval", "--input", str(tmp_path / "ds"), "--output", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2
        _, ssde_s, psnr_s, ratio_s = lines[1].split(",")
        assert np.isfinite(float(ssde_s)) and np.isfinite(float(psnr_s)) and np.isfinite(float(ratio_s))

    def test_deblur_kernel_out_writes_both_kernel_files_there(self, small_case, tmp_path):
        rc = run(["deblur", "--input", str(small_case / "ds" / "case" / "blurred.png"),
                  "--output", str(tmp_path / "r.png"), "--kernel-size", "5",
                  "--kernel-out", str(tmp_path / "est.txt")])
        assert rc == 0
        kernel = sd.read_kernel(tmp_path / "est.txt")
        check_kernel(kernel)
        assert np.array_equal(sd.read_image(tmp_path / "est.png") == 1.0, kernel == kernel.max())
        assert not (tmp_path / "r_kernel.txt").exists() and not (tmp_path / "r_kernel.png").exists()

    def test_verbose_prints_one_line_per_inner_iteration(self, small_case, tmp_path, capsys):
        blurred = small_case / "ds" / "case" / "blurred.png"
        rc = run(["deblur", "--input", str(blurred), "--output", str(tmp_path / "r.png"),
                  "--kernel-size", "9", "--inner-iters", "2", "--verbose"])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        schedule = sd.build_schedule(sd.read_image(blurred).shape, 9, inner_iters=2)
        expected = ["level %d iter %d: kernel %dx%d" % (li, it, level.kernel_size, level.kernel_size)
                    for li, level in enumerate(schedule.levels) for it in range(2)]
        assert len(schedule) == 2 and [line.split(", threshold ")[0] for line in lines] == expected

    def test_estimate_kernel_with_crop(self, tmp_path):
        blurred = sd.synthesize(sd.test_chart(128), sd.kernel_preset("line-h", 7),
                                noise_sigma=0.005, seed=6)
        bpath = tmp_path / "b.png"
        sd.write_image(bpath, blurred, bit_depth=16)
        out = tmp_path / "k.txt"
        rc = run(["estimate-kernel", "--input", str(bpath), "--output", str(out),
                  "--kernel-size", "7", "--crop", "16,16,96,96"])
        assert rc == 0
        kernel = sd.read_kernel(out)
        check_kernel(kernel)

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kernel_size = 7\ninner_iters = 2\nwindow = 7\n")
        blurred = sd.synthesize(sd.test_chart(96), sd.kernel_preset("line-h", 7),
                                noise_sigma=0.005, seed=8)
        bpath = tmp_path / "b.png"
        sd.write_image(bpath, blurred, bit_depth=16)
        out = tmp_path / "k.txt"
        rc = run(["estimate-kernel", "--input", str(bpath), "--output", str(out),
                  "--config", str(cfg), "--inner-iters", "3"])
        assert rc == 0
        check_kernel(sd.read_kernel(out))


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["deblur", "--input", "a", "--output", "b", "--kernel-size", "9"])
    assert args.kernel_size == 9
