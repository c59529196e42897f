"""Restoration sweep: PSNR of the final restoration over presets, sizes and noise.

Each cell is the built-in chart (``synth.test_chart``) at one size, blurred
by one of the benchmark's kernels (``perfbench.inputs.kernel`` and
``perfbench.inputs.blur``) plus Gaussian noise drawn from
``default_rng([seed, image side, 100 * sigma])`` and clipped to [0, 1];
``run --seeds`` takes the noise seeds (default 1).  The kernel is estimated
once per cell (``estimate_blur_kernel``), and three modes restore the cell
through ``restore``, each from the structure of a full-frame latent under
its kernel:

* ``crop``: the true kernel, at the estimate's final threshold and
  smoothing strength.  The mode keeps its name so that runs of older trees
  stay comparable.
* ``blind``: the estimated kernel, at the estimate's final threshold and
  smoothing strength; this is ``deblur_blind`` as it runs.
* ``deconv``: the true kernel, at the config's ``theta0`` and threshold;
  this is the ``deconv`` command.  Trees before ``restore`` existed took
  this mode's structure from the blurred input instead.

Every cell is scored with ``perfbench.score.psnr`` on the interior (margin =
kernel side), after undoing the estimated kernel's alignment shift in blind
mode.  ``estimate_s`` is the kernel estimate's time, and each mode's ``_s``
its restoration's.

Run each tree's own copy of the tool, with that tree on ``PYTHONPATH`` (a
tree's copy builds the modes from what that tree offers), then compare two
runs::

    PYTHONPATH=src python tools/restore_sweep.py run --out after.json
    (cd ../parent && PYTHONPATH=src python tools/restore_sweep.py run --out ../before.json)
    python tools/restore_sweep.py compare ../before.json after.json

``compare`` prints every cell and, per mode and size, the mean over the
noise levels and seeds of each kernel and of each preset (both l-curve
kernels together); it exits 1 if a preset's mean falls.  When the compared
cells cover at least two seeds, it also prints each preset's mean blind-mode
SSDE with its seed-to-seed spread (the range of the earlier run's per-seed
means) and exits 1 if a mean rises by more than that spread.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import inputs, score  # noqa: E402

SIZES = (191, 255)
KERNELS = (("line-d", 15), ("box", 13), ("l-curve", 15), ("l-curve", 21))
SIGMAS = (0.01, 0.03)
MODES = ("crop", "blind", "deconv")


def cell_input(size: int, preset: str, ksize: int, sigma: float, seed: int = 1):
    from salientdeblur.synth import test_chart

    sharp = test_chart(size)
    k = inputs.kernel(preset, ksize)
    rng = np.random.default_rng([seed, size, int(round(100 * sigma))])
    blurred = np.clip(inputs.blur(sharp, k) + rng.normal(0.0, sigma, size=sharp.shape), 0.0, 1.0)
    return sharp, k, blurred


def run_cell(size: int, preset: str, ksize: int, sigma: float, modes, seed: int = 1) -> dict:
    import salientdeblur as sd

    sharp, k_true, blurred = cell_input(size, preset, ksize, sigma, seed)
    config = sd.DeblurConfig(kernel_size=ksize)
    row = {"size": size, "preset": preset, "ksize": ksize, "sigma": sigma, "seed": seed}
    started = time.perf_counter()
    result = sd.estimate_blur_kernel(blurred, config)
    row["estimate_s"] = time.perf_counter() - started
    at_estimate = {"theta": result.theta, "threshold": result.threshold}
    for mode in modes:
        started = time.perf_counter()
        shift = (0, 0)
        if mode == "deconv":
            restored, _ = sd.restore(blurred, k_true, config)
        elif mode == "crop":
            restored, _ = sd.restore(blurred, k_true, config, **at_estimate)
        else:
            restored, _ = sd.restore(blurred, result.kernel, config, **at_estimate)
            row["ssde"], shift = score.ssde(result.kernel, k_true)
        row[mode + "_s"] = time.perf_counter() - started
        row[mode] = score.psnr(restored, sharp, ksize, shift)
    return row


def cmd_run(args) -> int:
    import salientdeblur

    rows = []
    for size in args.sizes:
        for preset, ksize in KERNELS:
            for sigma in SIGMAS:
                for seed in args.seeds:
                    row = run_cell(size, preset, ksize, sigma, args.modes, seed)
                    rows.append(row)
                    print(json.dumps(row), file=sys.stderr)
    Path(args.out).write_text(json.dumps({"source": salientdeblur.__file__, "rows": rows}, indent=1))
    return 0


def _key(row):
    return (row["size"], row["preset"], row["ksize"], row["sigma"], row.get("seed", 1))


def cmd_compare(args) -> int:
    before = {_key(r): r for r in json.loads(Path(args.before).read_text())["rows"]}
    after = {_key(r): r for r in json.loads(Path(args.after).read_text())["rows"]}
    keys = [k for k in before if k in after]
    modes = [m for m in MODES if all(m in before[k] and m in after[k] for k in keys)]
    worse = []
    for mode in modes:
        print("\n%s mode, PSNR (dB)\n" % mode)
        print("| size | kernel | noise | seed | before | after | change |")
        print("|---|---|---|---|---|---|---|")
        for k in keys:
            b, a = before[k][mode], after[k][mode]
            print("| %d² | %s %d | %g%% | %d | %.2f | %.2f | %+.2f |"
                  % (k[0], k[1], k[2], 100 * k[3], k[4], b, a, a - b))
        for width, label in ((3, "kernel"), (2, "preset")):
            print("\n| size | %s | mean before | mean after | change |" % label)
            print("|---|---|---|---|---|")
            for group in dict.fromkeys(k[:width] for k in keys):
                members = [k for k in keys if k[:width] == group]
                b = float(np.mean([before[k][mode] for k in members]))
                a = float(np.mean([after[k][mode] for k in members]))
                print("| %d² | %s | %.2f | %.2f | %+.2f |" % (group[0], " ".join(map(str, group[1:])), b, a, a - b))
                if width == 2 and a < b:
                    worse.append((mode,) + group)
        b = float(np.mean([before[k][mode] for k in keys]))
        a = float(np.mean([after[k][mode] for k in keys]))
        print("\nall %d cells: %.2f -> %.2f dB (%+.2f)" % (len(keys), b, a, a - b))
    risen = _ssde_risen(before, after, keys)
    if worse:
        print("\nmean over noise fell: %s" % worse)
    if risen:
        print("\nmean blind SSDE rose past the seed spread: %s" % risen)
    return 1 if worse or risen else 0


def _ssde_risen(before, after, keys) -> list:
    """Print each preset's mean blind-mode SSDE and the earlier run's
    seed-to-seed spread; return the presets whose mean rose past it."""
    if len({k[4] for k in keys}) < 2 or not all("ssde" in before[k] and "ssde" in after[k] for k in keys):
        return []
    print("\nblind-mode SSDE; spread: range of the earlier run's per-seed means\n")
    print("| size | preset | mean before | mean after | change | spread |")
    print("|---|---|---|---|---|---|")
    risen = []
    for group in dict.fromkeys(k[:2] for k in keys):
        members = [k for k in keys if k[:2] == group]
        seeds = dict.fromkeys(k[4] for k in members)
        spread = float(np.ptp([np.mean([before[k]["ssde"] for k in members if k[4] == s]) for s in seeds]))
        b = float(np.mean([before[k]["ssde"] for k in members]))
        a = float(np.mean([after[k]["ssde"] for k in members]))
        print("| %d² | %s | %.5f | %.5f | %+.5f | %.5f |" % (group[0], group[1], b, a, a - b, spread))
        if len(seeds) >= 2 and a - b > spread:
            risen.append(group)
    return risen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="restore and score every cell with the salientdeblur on the path")
    run.add_argument("--out", required=True)
    run.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    run.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES))
    run.add_argument("--seeds", type=int, nargs="+", default=[1], help="noise seeds, each >= 0 (default 1)")
    cmp_ = sub.add_parser("compare", help="tabulate two runs and check the per-group means")
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
