"""The restoration sweep (tools/restore_sweep.py): its gate, ``compare``,
exits 1 when a preset's mean PSNR over the noise levels falls, and 0 when
every preset's mean holds; ``run_cell`` restores one small cell in every
mode, the blind one as ``deblur_blind`` does."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "restore_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("restore_sweep", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(path, psnr):
    """One run: two presets at one size and two noise levels; ``psnr`` maps
    (preset, sigma) to the crop mode's PSNR."""
    rows = [{"size": 191, "preset": preset, "ksize": 15, "sigma": sigma, "crop": value}
            for (preset, sigma), value in psnr.items()]
    path.write_text(json.dumps({"source": "test", "rows": rows}))
    return str(path)


BEFORE = {("box", 0.01): 30.0, ("box", 0.03): 26.0, ("line-d", 0.01): 31.0, ("line-d", 0.03): 27.0}


@pytest.mark.parametrize("after, code", [
    (BEFORE, 0),
    ({**BEFORE, ("box", 0.01): 30.5}, 0),
    # one cell falls but the preset's mean over the noise levels holds
    ({**BEFORE, ("line-d", 0.01): 30.5, ("line-d", 0.03): 27.5}, 0),
    ({**BEFORE, ("box", 0.03): 25.75}, 1),
    ({**BEFORE, ("line-d", 0.01): 30.5, ("line-d", 0.03): 27.25}, 1),
], ids=["equal", "better", "mean-holds", "box-falls", "mean-falls"])
def test_compare_exit_code(sweep, tmp_path, capsys, after, code):
    before_path = _write_run(tmp_path / "before.json", BEFORE)
    after_path = _write_run(tmp_path / "after.json", after)
    assert sweep.main(["compare", before_path, after_path]) == code
    out = capsys.readouterr().out
    assert "crop mode" in out
    assert ("mean over noise fell" in out) == bool(code)


def test_run_cell_restores_every_mode_and_blind_is_deblur_blind(sweep):
    import numpy as np

    import salientdeblur as sd

    row = sweep.run_cell(64, "box", 9, 0.01, sweep.MODES)
    assert all(np.isfinite(row[mode]) for mode in sweep.MODES)
    sharp, k_true, blurred = sweep.cell_input(64, "box", 9, 0.01)
    kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=9))
    _, shift = sweep.score.ssde(kernel, k_true)
    assert row["blind"] == sweep.score.psnr(restored, sharp, 9, shift)
