"""Spans around the calls into each module of the program, from outside it.

``Tracer.install`` swaps traced wrappers into the module namespaces where the
program looks its callees up (``pipeline.tv_deconv``, ``numpy.fft.rfft2``,
...), so the program itself is unchanged.  A span is a list
``[name, start, end, parent]``; spans stay in memory until the traced
operation ends.  A span's self time is its duration minus the time its
children cover, so the self times of all spans add up to the root's
duration.  ``layer_metrics`` turns the spans, the CG counts and the
pipeline's progress events into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import time

# numpy.fft entry points; the program calls them through ``np.fft.<name>``.
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

# (module, attribute, span name): each module namespace in which a callee is
# looked up, the callee, and the span recorded around it.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "deblur_blind", "pipeline.deblur_blind"),
    ("pipeline", "estimate_blur_kernel", "pipeline.estimate_blur_kernel"),
    ("metrics", "estimate_blur_kernel", "pipeline.estimate_blur_kernel"),
    ("pipeline", "structure_pass", "pipeline.structure_pass"),
    ("pipeline", "adaptive_tv_denoise", "structure.tv"),
    ("pipeline", "r_map", "structure.r_map"),
    ("pipeline", "smooth_weight", "structure.smooth_weight"),
    ("pipeline", "shock_filter", "structure.shock"),
    ("pipeline", "init_threshold", "structure.threshold"),
    ("pipeline", "select_salient_edges", "structure.select"),
    ("pipeline", "estimate_kernel", "kernel_est.estimate"),
    ("kernel_est", "kernel_irls_step", "kernel_est.irls"),
    ("kernel_est", "l0_gradient_smooth", "kernel_est.l0"),
    ("kernel_est", "cg_solve", "kernel_est.cg"),
    ("pipeline", "tv_deconv", "deconv.tv"),
    ("metrics", "tv_deconv", "deconv.tv"),
    ("pipeline", "adaptive_deconv", "deconv.adaptive"),
    ("deconv", "cg_solve", "deconv.cg"),
    ("pipeline", "resample", "core.resample"),
    ("pipeline", "resize", "core.resample"),
    ("fileio", "read_image", "fileio.read"),
    ("fileio", "read_kernel", "fileio.read"),
    ("metrics", "read_image", "fileio.read"),
    ("metrics", "read_kernel", "fileio.read"),
    ("fileio", "write_image", "fileio.write"),
    ("fileio", "write_kernel", "fileio.write"),
    ("fileio", "write_kernel_image", "fileio.write"),
    ("metrics", "evaluate_directory", "metrics.evaluate_directory"),
    ("metrics", "evaluate_case", "metrics.evaluate_case"),
    ("metrics", "evaluate_kernels", "metrics.score"),
)

LAYERS = ("pipeline", "structure", "kernel_est", "deconv", "core", "fileio", "metrics", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.cg = {}          # span index -> [iterations used, iterations budgeted]
        self.events = []      # (time, enclosing estimate span, level index)
        self.bytes_read = 0
        self._undo = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(rec)
            self.stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
        return traced

    def _cg(self, name, fn):
        def counted_cg(apply_a, b, iters, *args, **kwargs):
            counts = self.cg[len(self.spans) - 1] = [0, int(iters)]

            def counted(p):
                counts[0] += 1
                return apply_a(p)

            return fn(counted, b, iters, *args, **kwargs)
        return self.span(name, counted_cg)

    def _read(self, name, fn):
        def sized(path, *args, **kwargs):
            self.bytes_read += os.path.getsize(path)
            return fn(path, *args, **kwargs)
        return self.span(name, sized)

    def _progress(self, name, fn):
        def with_progress(*args, progress=None, **kwargs):
            estimate = self.stack[-1]

            def hook(level, iteration, kernel, threshold):
                self.events.append((time.perf_counter(), estimate, level))
                if progress is not None:
                    progress(level, iteration, kernel, threshold)

            return fn(*args, progress=hook, **kwargs)
        return self.span(name, with_progress)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target."""
        import importlib

        import numpy.fft

        for module, attr, name in TARGETS:
            owner = importlib.import_module("salientdeblur." + module)
            fn = getattr(owner, attr)
            if name.endswith(".cg"):
                wrapped = self._cg(name, fn)
            elif name == "fileio.read":
                wrapped = self._read(name, fn)
            elif name == "pipeline.estimate_blur_kernel":
                wrapped = self._progress(name, fn)
            else:
                wrapped = self.span(name, fn)
            self._patch(owner, attr, wrapped)
        for attr in FFT_NAMES:
            self._patch(numpy.fft, attr, self.span("core.fft", getattr(numpy.fft, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self):
        return {"spans": self.spans, "cg": {str(k): v for k, v in self.cg.items()},
                "events": self.events, "bytes_read": self.bytes_read}


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark process, on a dumped trace)
# ---------------------------------------------------------------------------

def self_times(spans):
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _inclusive(spans, names):
    """Total duration of spans named in ``names`` that no such span encloses."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _under(spans, idx, name):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(trace) -> dict:
    """Per-layer metrics of one traced operation, plus its wall time."""
    spans = trace["spans"]
    own = self_times(spans)
    wall = spans[0][2] - spans[0][1]
    if abs(sum(own) - wall) > 1e-6 * max(wall, 1.0):
        raise AssertionError("trace: self times add to %.6f s, wall %.6f s" % (sum(own), wall))
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(t for (name, *_), t in zip(spans, own)
                                     if name.split(".", 1)[0] == layer)
    names = [s[0] for s in spans]

    # pipeline: level timings from the progress events of each estimate span
    levels, finest, coarse = 0, 0.0, 0.0
    by_estimate = {}
    for t, est, level in trace["events"]:
        by_estimate.setdefault(est, {})[level] = t
    for est, last in by_estimate.items():
        prev = spans[est][1]
        for level in sorted(last):
            if level == max(last):
                finest += last[level] - prev
            else:
                coarse += last[level] - prev
            prev = last[level]
        levels += len(last)
    inner = len(trace["events"])
    out.update({"pipeline.levels": levels, "pipeline.finest_level_s": finest,
                "pipeline.coarse_levels_s": coarse})

    passes = names.count("pipeline.structure_pass")
    out.update({
        "structure.tv_s": _inclusive(spans, {"structure.tv"}),
        "structure.tv_calls": names.count("structure.tv"),
        "structure.edges_s": _inclusive(spans, {"structure.r_map", "structure.smooth_weight",
                                                "structure.shock", "structure.select",
                                                "structure.threshold"}),
        "structure.pass_s": _inclusive(spans, {"pipeline.structure_pass"}),
        "structure.relaxations": names.count("structure.select") - inner - passes,
    })

    cg = {int(k): v for k, v in trace["cg"].items()}
    kcg = [v for i, v in cg.items() if names[i] == "kernel_est.cg"]
    out.update({
        "kernel_est.s": _inclusive(spans, {"kernel_est.estimate"}),
        "kernel_est.irls_s": _inclusive(spans, {"kernel_est.irls"}),
        "kernel_est.l0_s": _inclusive(spans, {"kernel_est.l0"}),
        "kernel_est.cg_iters": sum(v[0] for v in kcg),
        "kernel_est.cg_budget": sum(v[1] for v in kcg),
    })
    out["kernel_est.cg_use"] = out["kernel_est.cg_iters"] / max(out["kernel_est.cg_budget"], 1)

    interim = {i for i, n in enumerate(names) if n == "deconv.tv" and not _under(spans, i, "metrics.score")}
    final = {i for i, n in enumerate(names) if n == "deconv.adaptive"}
    dcg = [(i, v) for i, v in cg.items() if names[i] == "deconv.cg"]
    interim_cg = [v for i, v in dcg if spans[i][3] in interim]
    final_cg = [v for i, v in dcg if spans[i][3] in final]
    out.update({
        "deconv.interim_s": sum(spans[i][2] - spans[i][1] for i in interim),
        "deconv.interim_cg_iters": sum(v[0] for v in interim_cg),
        "deconv.final_s": sum(spans[i][2] - spans[i][1] for i in final),
        "deconv.final_cg_iters": sum(v[0] for v in final_cg),
        "deconv.cg_budget": sum(v[1] for v in interim_cg + final_cg),
    })
    used = out["deconv.interim_cg_iters"] + out["deconv.final_cg_iters"]
    out["deconv.cg_use"] = used / max(out["deconv.cg_budget"], 1)

    out.update({
        "core.fft_calls": names.count("core.fft"),
        "core.fft_s": _inclusive(spans, {"core.fft"}),
        "core.resample_s": _inclusive(spans, {"core.resample"}),
        "fileio.read_s": _inclusive(spans, {"fileio.read"}),
        "fileio.write_s": _inclusive(spans, {"fileio.write"}),
        "fileio.bytes_read": trace["bytes_read"],
        "metrics.score_s": _inclusive(spans, {"metrics.score"}),
        "trace.wall_s": wall,
    })
    return out
