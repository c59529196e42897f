"""tools/working_set.py runs every stage and prints a finite plane count for each."""

import importlib.util
import math
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "working_set.py"


def test_every_stage_prints_finite_planes(capsys):
    spec = importlib.util.spec_from_file_location("working_set", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--size", "64", "--kernel-size", "5"]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header.split() == ["stage", "planes"]
    printed = dict(row.split() for row in rows)
    assert list(printed) == [name for name, _ in tool.stages(64, 5)]
    assert all(math.isfinite(float(planes)) and float(planes) > 0 for planes in printed.values())
