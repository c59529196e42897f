"""tools/linetrace.py lists the lines of src/salientdeblur that a traced run did not reach."""

import importlib.util
import inspect
import sys
from pathlib import Path

import salientdeblur as sd
from salientdeblur import pipeline, synth

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "linetrace.py"


def _lines(func, executable) -> set:
    source, start = inspect.getsourcelines(func)
    return set(range(start, start + len(source))) & executable


def test_synth_run_reaches_the_chart_and_not_the_pipeline(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("linetrace", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tmp_path / "b.png"
    before = sys.gettrace()
    hits, codes = tool.trace([["synth", "--chart", "64", "--output", str(out)]])
    assert codes == [0] and out.is_file() and sys.gettrace() is before
    synth_py, pipeline_py = Path(synth.__file__).resolve(), Path(pipeline.__file__).resolve()
    chart = _lines(sd.test_chart, tool.executable_lines(synth_py))
    restore = _lines(pipeline.restore, tool.executable_lines(pipeline_py))
    assert chart and chart <= hits[synth_py]
    assert restore and not restore & hits[pipeline_py]
    # module bodies run on import: a constant's line is not executable
    constant = pipeline_py.read_text().splitlines().index("SCALE_FACTOR = math.sqrt(2.0) / 2.0") + 1
    assert constant not in tool.executable_lines(pipeline_py)
    capsys.readouterr()
    total = tool.report(hits)
    printed = capsys.readouterr().out.splitlines()
    executable = tool.executable_lines(pipeline_py)
    header = "pipeline.py: %d of %d lines not run" % (len(executable - hits[pipeline_py]), len(executable))
    assert any(line.endswith(header) for line in printed)
    assert printed[-1].startswith("%d executable lines not run in " % total) and total > 0
