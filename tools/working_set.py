"""Working set of each stage of a crop deblur, in image planes.

For every stage it prints the traced (``tracemalloc``) peak of a second,
warm call above what existed when the call started, divided by the bytes of
one float64 plane of the image (``size`` x ``size`` x 8).  The first call
fills numpy's FFT plan cache, which is not part of a stage's working set.

The sample is ``synth.test_chart(size)`` blurred by the ``l-curve`` preset
of the given kernel size; the RGB input stacks it with two shifted copies,
and the structure field of the final restoration is the one ``restore``
takes from the gray sample at the default config.  Stages:

* ``r_map``, ``adaptive_tv_denoise``, ``shock_filter``: the structure
  stages on the gray frame (the TV split at the pyramid's first theta,
  weighted by ``smooth_weight(r_map(...))``);
* ``structure_pass``: the three above plus edge selection;
* ``l2_latent``: the blind pipeline's full-frame latent;
* ``tv_deconv``: the interim restoration, gray;
* ``adaptive_deconv``: the final restoration, gray and RGB;
* ``adaptive_deconv-rgb-out``: the RGB one restoring into its input with
  ``out=``, as the CLI's ``deblur`` and ``deconv`` do;
* ``restore``: the whole restoration from a kernel on the RGB input, the
  latent and its structure included, restoring into the input as the CLI
  does.

Run it with the tree to measure on ``PYTHONPATH``::

    PYTHONPATH=src python tools/working_set.py --size 128 --kernel-size 9
    PYTHONPATH=src python tools/working_set.py --size 319 --kernel-size 15 --stages adaptive_deconv-rgb

Counts are of numpy's traced allocations, not of resident memory.  numpy
allocates a 64 KB iteration buffer for each operand that is not contiguous,
a fixed size that weighs more in planes the smaller the image (1.5 planes
for one binary operation at 128², 0.24 at 319²).
"""

from __future__ import annotations

import argparse
import tracemalloc

import numpy as np


def warm_planes(call, side: int) -> float:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (side * side * 8)
    finally:
        tracemalloc.stop()


def stages(size: int, kernel_size: int):
    """(name, zero-argument call) for every stage, on one seeded sample."""
    from salientdeblur import pipeline, structure
    from salientdeblur.core import convolve
    from salientdeblur.deconv import _l2_latent, adaptive_deconv, tv_deconv
    from salientdeblur.synth import kernel_preset, test_chart

    k = kernel_preset("l-curve", kernel_size)
    sharp = test_chart(size)
    gray = convolve(sharp, k)
    rgb = np.dstack([gray, convolve(np.roll(sharp, 3, axis=0), k), convolve(np.roll(sharp, 5, axis=1), k)])
    config = pipeline.DeblurConfig(kernel_size=kernel_size)
    omega = structure.smooth_weight(structure.r_map(gray, config.window))
    grad_s = pipeline.restore(gray, k, config)[1]
    into = np.empty_like(rgb)

    def in_place(restoration):  # the CLI's calls: the restoration overwrites its input
        def call():
            np.copyto(into, rgb)
            return restoration(into)
        return call

    return (
        ("r_map", lambda: structure.r_map(gray, config.window)),
        ("adaptive_tv_denoise", lambda: structure.adaptive_tv_denoise(gray, config.theta0, omega)),
        ("shock_filter", lambda: structure.shock_filter(gray)),
        ("structure_pass", lambda: pipeline.structure_pass(gray, config)),
        ("l2_latent", lambda: _l2_latent(gray, k)),
        ("tv_deconv", lambda: tv_deconv(gray, k, pipeline.LAMBDA_INTERIM)),
        ("adaptive_deconv", lambda: adaptive_deconv(gray, k, grad_s, config.lambda_final)),
        ("adaptive_deconv-rgb", lambda: adaptive_deconv(rgb, k, grad_s, config.lambda_final)),
        ("adaptive_deconv-rgb-out",
         in_place(lambda image: adaptive_deconv(image, k, grad_s, config.lambda_final, out=image))),
        ("restore", in_place(lambda image: pipeline.restore(image, k, config, out=image))),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=128, help="image side (>= 64)")
    parser.add_argument("--kernel-size", type=int, default=9, help="odd kernel side")
    parser.add_argument("--stages", nargs="*", help="stage names to run (default: all)")
    args = parser.parse_args(argv)
    table = stages(args.size, args.kernel_size)
    names = [name for name, _ in table]
    unknown = set(args.stages or ()) - set(names)
    if unknown:
        parser.error("unknown stage(s) %s; choose from %s" % (sorted(unknown), names))
    print("%-22s %8s" % ("stage", "planes"))
    for name, call in table:
        if not args.stages or name in args.stages:
            print("%-22s %8.2f" % (name, warm_planes(call, args.size)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
