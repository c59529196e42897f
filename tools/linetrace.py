"""Line trace of ``src/salientdeblur``: the executable lines that nothing ran.

Runs ``salientdeblur.cli.main`` on each ``--cli`` argument list in this
process, and the ``--pytest`` selection when given, under ``sys.settrace``
and ``threading.settrace``.  Then it prints, per module, each executable line
that no traced frame ran.  A module's executable lines are the
``co_lines()`` of the functions in its compiled source, so a function that
never ran is listed from its ``def`` line on.  Module and class bodies
(imports, ``class`` lines, constants, comprehensions at module level) run on
import and are not listed.  Child processes are not traced.

Run it from the repository root with the tree to trace on ``PYTHONPATH``::

    PYTHONPATH=src python tools/linetrace.py --cli "synth --chart 64 --output /tmp/b.png"
    PYTHONPATH=src python tools/linetrace.py --pytest "-q -p no:cacheprovider tests" \\
        --cli "structure --input b.png --output s"

The commands' own output goes to standard error, the report to standard
output.  A command's exit code does not stop the trace: commands that fail
on purpose trace the error paths.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import shlex
import sys
import threading
import types
from pathlib import Path


def executable_lines(path: Path) -> set:
    """The lines of a module's functions, lambdas and nested comprehensions."""
    lines: set = set()

    def walk(code, at_import: bool) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                comprehension = const.co_name.startswith("<") and const.co_name != "<lambda>"
                on_import = at_import and (comprehension or not const.co_flags & inspect.CO_OPTIMIZED)
                if not on_import:
                    lines.update(line for _, _, line in const.co_lines() if line is not None)
                walk(const, on_import)

    walk(compile(path.read_text(), str(path), "exec"), True)
    return lines


def trace(commands, pytest_args=None) -> tuple:
    """Run the commands (argument lists) and the pytest selection under the
    tracer.  Returns ({module path: lines run}, [exit codes]); the pytest
    run's code, if any, comes last."""
    import salientdeblur
    from salientdeblur import cli

    package = Path(salientdeblur.__file__).resolve().parent
    hits = {path: set() for path in sorted(package.glob("*.py"))}
    by_name: dict = {}

    def lines_of(filename):
        if filename not in by_name:
            by_name[filename] = hits.get(Path(os.path.realpath(filename)))
        return by_name[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    codes = []
    previous, previous_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for argv in commands:
                try:
                    codes.append(cli.main(list(argv)))
                except SystemExit as exc:  # argparse's usage errors
                    codes.append(exc.code)
                print("linetrace: exit %s: %s" % (codes[-1], shlex.join(argv)))
            if pytest_args is not None:
                import pytest

                codes.append(int(pytest.main(list(pytest_args))))
                print("linetrace: pytest exit %d" % codes[-1])
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return hits, codes


def report(hits) -> int:
    """Print every executable line not run, with its source; returns their count."""
    total = modules = 0
    for path, run in hits.items():
        executable = executable_lines(path)
        missed = sorted(executable - run)
        if not missed:
            continue
        source = path.read_text().splitlines()
        print("%s: %d of %d lines not run" % (os.path.relpath(path), len(missed), len(executable)))
        for line in missed:
            print("  %5d  %s" % (line, source[line - 1].strip()))
        total, modules = total + len(missed), modules + 1
    print("%d executable lines not run in %d modules" % (total, modules))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS",
                        help="one salientdeblur command line, shell-quoted (repeatable)")
    parser.add_argument("--pytest", metavar="ARGS", help="pytest arguments, shell-quoted")
    args = parser.parse_args(argv)
    if not args.cli and args.pytest is None:
        parser.error("give --cli or --pytest")
    hits, _ = trace([shlex.split(c) for c in args.cli],
                    None if args.pytest is None else shlex.split(args.pytest))
    report(hits)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
