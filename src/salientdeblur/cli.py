"""Command-line interface.

Subcommands: ``deblur`` (blind end to end), ``estimate-kernel`` (blind
kernel only), ``deconv`` (non-blind with a supplied kernel), ``structure``
(salient-structure maps), ``synth`` (synthetic blur generator) and ``eval``
(batch scoring of a dataset directory).  ``deblur`` and ``deconv`` restore
through one ``pipeline.restore``, which takes the restoration's structure
from a latent under the kernel: the former at the kernel estimate's final
threshold and smoothing strength, the latter at the config's, with the
kernel size taken from the kernel file.

Exit codes: 0 success, 1 processing failure (textureless input, numerical
breakdown), 2 usage or I/O problems.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio, metrics, synth
from .core import poisson_reconstruct
from .errors import DeblurError, InvalidInputError
from .kernel_est import project_kernel
from .pipeline import (
    _CONFIG_TYPES,
    DeblurConfig,
    crop_region,
    deblur_blind,
    estimate_blur_kernel,
    load_config,
    restore,
    structure_pass,
)
from .structure import salient_mask

# Config keys settable by a flag of the same name; kernel_size has its own,
# except on deconv, whose kernel file fixes it.
_CONFIG_FLAGS = {k: t for k, t in _CONFIG_TYPES.items() if k != "kernel_size"}
# The keys each subcommand reads, and so offers as flags; config files take every key.
_STRUCTURE_KEYS = ("theta0", "window", "threshold")
_ESTIMATE_KEYS = tuple(k for k in _CONFIG_FLAGS if k != "lambda_final")
_DECONV_KEYS = ("lambda_final",) + _STRUCTURE_KEYS

_DEFAULT_KERNEL_SIZE = 15
_DEFAULT_PRESET = "line-d"


def _add_config_flags(parser: argparse.ArgumentParser, keys, kernel_size_flag: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file of 'key = value' lines")
    if kernel_size_flag:
        parser.add_argument("--kernel-size", type=int, metavar="N",
                            help="blur kernel side length (odd)")
    group = parser.add_argument_group("parameter overrides")
    for name in keys:
        group.add_argument("--" + name.replace("_", "-"), type=_CONFIG_FLAGS[name], dest=name,
                           help="override config key %r" % name)


def _build_config(args, kernel_size_required: bool = True) -> DeblurConfig:
    kernel_size = getattr(args, "kernel_size", None)
    if args.config:
        cfg = load_config(args.config, kernel_size=kernel_size)
    else:
        if kernel_size is None:
            if kernel_size_required:
                raise InvalidInputError("config: --kernel-size is required without a config file")
            kernel_size = _DEFAULT_KERNEL_SIZE
        cfg = DeblurConfig(kernel_size=kernel_size)
    overrides = _overrides(args)
    return replace(cfg, **overrides) if overrides else cfg


def _overrides(args) -> dict:
    """The config keys given as flags, with their values."""
    return {name: getattr(args, name) for name in _CONFIG_FLAGS if getattr(args, name, None) is not None}


def _parse_crop(spec: str | None):
    if spec is None:
        return None
    try:
        x, y, w, h = (int(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise InvalidInputError("crop: expected 'x,y,w,h', got %r" % spec) from exc
    return (x, y, w, h)


def _kernel_out_paths(args) -> tuple:
    if args.kernel_out:
        txt = Path(args.kernel_out)
    else:
        out = Path(args.output)
        txt = out.with_name(out.stem + "_kernel.txt")
    return txt, txt.with_suffix(".png")


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def hook(level, iteration, kernel, threshold):
        print("level %d iter %d: kernel %dx%d, threshold %.5f"
              % (level, iteration, kernel.shape[0], kernel.shape[1], threshold), file=sys.stderr)

    return hook


def _cmd_deblur(args) -> int:
    cfg = _build_config(args)
    image = fileio.read_image(args.input)
    # the image is not read again: the restoration overwrites it
    kernel, restored, _ = deblur_blind(image, cfg, crop=_parse_crop(args.crop),
                                       progress=_progress_printer(args.verbose), out=image)
    fileio.write_image(args.output, restored, bit_depth=args.bit_depth)
    txt, png = _kernel_out_paths(args)
    fileio.write_kernel(txt, kernel)
    fileio.write_kernel_image(png, kernel)
    print("deblur: wrote %s, %s, %s" % (args.output, txt, png))
    return 0


def _cmd_estimate_kernel(args) -> int:
    cfg = _build_config(args)
    image = fileio.read_image(args.input)
    crop = _parse_crop(args.crop)
    if crop is not None:
        image = crop_region(image, crop)
    result = estimate_blur_kernel(image, cfg, progress=_progress_printer(args.verbose))
    txt = Path(args.output)
    fileio.write_kernel(txt, result.kernel)
    fileio.write_kernel_image(txt.with_suffix(".png"), result.kernel)
    print("estimate-kernel: wrote %s and %s" % (txt, txt.with_suffix(".png")))
    return 0


def _cmd_deconv(args) -> int:
    kernel, _ = project_kernel(fileio.read_kernel(args.kernel))  # odd sides, unit sum
    args.kernel_size = max(kernel.shape)
    cfg = _build_config(args)
    image = fileio.read_image(args.input)
    restored, _ = restore(image, kernel, cfg, out=image)  # image not read again
    fileio.write_image(args.output, restored, bit_depth=args.bit_depth)
    print("deconv: wrote %s" % args.output)
    return 0


def _cmd_structure(args) -> int:
    cfg = _build_config(args, kernel_size_required=False)
    image = fileio.read_image(args.input)
    structure, enhanced, t, grad_s = structure_pass(image, cfg)
    prefix = Path(args.output)
    structure_path = prefix.with_name(prefix.name + "_structure.png")
    mask_path = prefix.with_name(prefix.name + "_mask.png")
    edges_path = prefix.with_name(prefix.name + "_edges.png")
    fileio.write_image(structure_path, np.clip(structure, 0.0, 1.0))
    fileio.write_image(mask_path, salient_mask(enhanced, t).astype(float))
    fileio.write_image(edges_path, np.clip(poisson_reconstruct(grad_s), 0.0, 1.0))
    print("structure: wrote %s, %s, %s (threshold %.5f)"
          % (structure_path, mask_path, edges_path, t))
    return 0


def _cmd_synth(args) -> int:
    if args.kernel and (args.preset is not None or args.kernel_size is not None):
        raise InvalidInputError("synth: --kernel takes the kernel from its file; drop --preset and --kernel-size")
    if args.input is not None:
        sharp = fileio.read_image(args.input)
    elif args.chart is not None:
        sharp = synth.test_chart(args.chart)
    else:
        raise InvalidInputError("synth: provide --input or --chart")
    if args.kernel:
        kernel, _ = project_kernel(fileio.read_kernel(args.kernel))
    else:
        size = _DEFAULT_KERNEL_SIZE if args.kernel_size is None else args.kernel_size
        kernel = synth.kernel_preset(args.preset or _DEFAULT_PRESET, size)
    blurred = synth.synthesize(sharp, kernel, noise_sigma=args.noise_sigma, seed=args.seed)
    fileio.write_image(args.output, blurred, bit_depth=args.bit_depth)
    written = [str(args.output)]
    if args.kernel_out:
        fileio.write_kernel(args.kernel_out, kernel)
        written.append(str(args.kernel_out))
    if args.sharp_out:
        fileio.write_image(args.sharp_out, sharp, bit_depth=args.bit_depth)
        written.append(str(args.sharp_out))
    print("synth: wrote %s" % ", ".join(written))
    return 0


def _cmd_eval(args) -> int:
    # without --config or --kernel-size, each case runs the default config at its true kernel's size
    configured = args.config or args.kernel_size is not None
    unread = [] if configured else ["--" + name.replace("_", "-") for name in _overrides(args)]
    if unread:
        raise InvalidInputError("eval: override flags need --config or --kernel-size: %s" % ", ".join(unread))
    cfg = _build_config(args) if configured else None
    results, table = metrics.evaluate_directory(args.input, csv_path=args.output, config=cfg)
    for name, rep in results:
        print("%s: ssde=%.6g psnr=%.2f error_ratio=%.4g shift=%s"
              % (name, rep.ssde, rep.psnr_db, rep.error_ratio, rep.alignment_shift))
    print("cumulative error-ratio table:")
    for threshold, fraction in table:
        print("  <= %-4g : %5.1f%%" % (threshold, 100.0 * fraction))
    if args.output:
        print("eval: wrote %s" % args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salientdeblur",
        description="Blind motion deblurring from salient structure, plus "
                    "synthesis and evaluation utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deblur", help="estimate the kernel and restore the image")
    p.add_argument("--input", required=True, help="blurred image (PNG/PNM)")
    p.add_argument("--output", required=True, help="restored image path")
    p.add_argument("--kernel-out", help="kernel text output (default: <output>_kernel.txt)")
    p.add_argument("--crop", metavar="X,Y,W,H", help="estimate the kernel on this region only")
    p.add_argument("--bit-depth", type=int, choices=(8, 16), default=8)
    p.add_argument("--verbose", action="store_true", help="log per-iteration progress")
    _add_config_flags(p, _CONFIG_FLAGS)
    p.set_defaults(handler=_cmd_deblur)

    p = sub.add_parser("estimate-kernel", help="blind kernel estimation only")
    p.add_argument("--input", required=True, help="blurred image")
    p.add_argument("--output", required=True, help="kernel text output path")
    p.add_argument("--crop", metavar="X,Y,W,H", help="estimate on this region only")
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p, _ESTIMATE_KEYS)
    p.set_defaults(handler=_cmd_estimate_kernel)

    p = sub.add_parser("deconv", help="non-blind deconvolution with a given kernel")
    p.add_argument("--input", required=True, help="blurred image")
    p.add_argument("--kernel", required=True, help="kernel text file; it also sets the kernel size")
    p.add_argument("--output", required=True, help="restored image path")
    p.add_argument("--bit-depth", type=int, choices=(8, 16), default=8)
    _add_config_flags(p, _DECONV_KEYS, kernel_size_flag=False)
    p.set_defaults(handler=_cmd_deconv)

    p = sub.add_parser("structure", help="write structure, mask and edge maps")
    p.add_argument("--input", required=True, help="input image")
    p.add_argument("--output", required=True, help="output path prefix")
    _add_config_flags(p, _STRUCTURE_KEYS)
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("synth", help="blur a sharp image and add seeded noise")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="sharp source image")
    source.add_argument("--chart", type=int, metavar="SIZE", help="use the built-in test chart")
    p.add_argument("--kernel", help="kernel text file to blur with")
    p.add_argument("--preset", choices=synth.KERNEL_PRESETS,
                   help="kernel preset when no --kernel file is given (default: %s)" % _DEFAULT_PRESET)
    p.add_argument("--kernel-size", type=int,
                   help="preset kernel size, odd (default: %d)" % _DEFAULT_KERNEL_SIZE)
    p.add_argument("--noise-sigma", type=float, default=0.0, help="Gaussian noise level")
    p.add_argument("--seed", type=int, default=0, help="noise seed (reproducible)")
    p.add_argument("--output", required=True, help="blurred image path")
    p.add_argument("--kernel-out", help="also write the kernel used")
    p.add_argument("--sharp-out", help="also write the sharp source image")
    p.add_argument("--bit-depth", type=int, choices=(8, 16), default=16)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("eval", help="score a dataset directory of cases")
    p.add_argument("--input", required=True, help="dataset root directory")
    p.add_argument("--output", help="CSV report path")
    _add_config_flags(p, _ESTIMATE_KEYS)
    p.set_defaults(handler=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InvalidInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: i/o failure: %s" % exc, file=sys.stderr)
        return 2
    except DeblurError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
