from dataclasses import fields

import numpy as np
import pytest

import salientdeblur as sd
from salientdeblur.cli import build_parser, main


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
        for flag in ("--kernel-size", "--crop", "--mask-rule", "--gamma", "--lambda-c", "--config"):
            assert flag in out

    def test_every_config_field_has_a_flag_of_its_type(self):
        parser = build_parser()
        base = sd.DeblurConfig(kernel_size=7)
        for f in fields(base):
            default = getattr(base, f.name)
            if f.name == "kernel_size":
                args = parser.parse_args(["deblur", "--input", "a", "--output", "b", "--kernel-size", "9"])
                assert args.kernel_size == 9
            elif f.name == "mask_rule":
                args = parser.parse_args(["deblur", "--input", "a", "--output", "b",
                                          "--mask-rule", "conjunction"])
                assert args.mask_rule == "conjunction"
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


class TestErrors:
    def test_missing_input_exit_2_names_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.png"
        rc = run(["deblur", "--input", str(missing), "--output", str(tmp_path / "o.png"),
                  "--kernel-size", "9"])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err

    def test_textureless_image_exit_1(self, tmp_path, capsys):
        flat = tmp_path / "flat.png"
        sd.write_image(flat, np.full((64, 64), 0.5))
        rc = run(["deblur", "--input", str(flat), "--output", str(tmp_path / "o.png"),
                  "--kernel-size", "9"])
        assert rc == 1
        assert "structure" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("no_such_key = 3\n")
        img = tmp_path / "img.png"
        sd.write_image(img, sd.test_chart(64))
        rc = run(["structure", "--input", str(img), "--output", str(tmp_path / "s"),
                  "--config", str(cfg)])
        assert rc == 2
        assert "no_such_key" in capsys.readouterr().err

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

    def test_kernel_file_input(self, tmp_path):
        kpath = tmp_path / "k.txt"
        sd.write_kernel(kpath, sd.kernel_preset("box", 5))
        rc = run(["synth", "--chart", "72", "--kernel", str(kpath), "--output", str(tmp_path / "b.png")])
        assert rc == 0

    def test_requires_source(self, tmp_path):
        rc = run(["synth", "--output", str(tmp_path / "b.png")])
        assert rc == 2


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


class TestDeconvCommand:
    def test_tv_and_adaptive(self, tmp_path):
        chart = sd.test_chart(96)
        kernel = sd.kernel_preset("line-h", 7)
        blurred = sd.synthesize(chart, kernel, noise_sigma=0.005, seed=4)
        bpath = tmp_path / "b.png"
        kpath = tmp_path / "k.txt"
        sd.write_image(bpath, blurred, bit_depth=16)
        sd.write_kernel(kpath, kernel)
        for method in ("tv", "adaptive"):
            out = tmp_path / f"r_{method}.png"
            rc = run(["deconv", "--input", str(bpath), "--kernel", str(kpath),
                      "--output", str(out), "--method", method])
            assert rc == 0
            restored = sd.read_image(out)
            assert sd.psnr(restored, chart) > sd.psnr(blurred, chart)

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
        sd.check_kernel(kernel)

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kernel_size = 7\ninner_iters = 2\ntv_iters = 40\n")
        blurred = sd.synthesize(sd.test_chart(96), sd.kernel_preset("line-h", 7),
                                noise_sigma=0.005, seed=8)
        bpath = tmp_path / "b.png"
        sd.write_image(bpath, blurred, bit_depth=16)
        out = tmp_path / "k.txt"
        rc = run(["estimate-kernel", "--input", str(bpath), "--output", str(out),
                  "--config", str(cfg), "--inner-iters", "3"])
        assert rc == 0
        sd.check_kernel(sd.read_kernel(out))


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["deblur", "--input", "a", "--output", "b", "--kernel-size", "9"])
    assert args.kernel_size == 9
