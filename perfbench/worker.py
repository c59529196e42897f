"""One operation of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job gives the argument list for ``salientdeblur.cli.main`` (the function
behind the ``salientdeblur`` command), whether to trace, and whether to keep
the kernels that ``eval`` estimates (the CSV holds only scores).  The result
goes to ``result.json`` in the job's output directory, the trace, if any, to
``trace.json``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``getrusage`` keeps the maximum across ``execve``, so a child started by
    a large parent would report the parent's size; VmHWM is the new image's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    import salientdeblur
    from salientdeblur import cli, metrics

    src = Path(job["src"]).resolve()
    if src not in Path(salientdeblur.__file__).resolve().parents:
        raise SystemExit("worker: salientdeblur imported from %s, not %s" % (salientdeblur.__file__, src))

    tracer = None
    op = cli.main
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        op = tracer.span("bench.op", cli.main)

    captured = []
    if job["capture"]:
        estimate = metrics.estimate_blur_kernel

        def recording(*args, **kwargs):
            result = estimate(*args, **kwargs)
            captured.append(result.kernel.copy())
            return result

        metrics.estimate_blur_kernel = recording

    start, cpu = time.perf_counter(), time.process_time()
    code = op(job["argv"])
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu

    if tracer is not None:
        tracer.uninstall()
        (out / "trace.json").write_text(json.dumps(tracer.dump()))
    for i, k in enumerate(captured):
        np.save(out / ("captured_%03d.npy" % i), k)
    (out / "result.json").write_text(json.dumps({"code": code, "wall_s": wall, "cpu_s": cpu,
                                                 "peak_rss_mb": peak_rss_mb(),
                                                 "captured": len(captured)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
