"""The restoration sweep (tools/restore_sweep.py): its gate, ``compare``,
exits 1 when a preset's mean PSNR over the noise levels falls, or, over two
or more seeds, when a preset's mean blind SSDE rises past the earlier run's
seed-to-seed spread, and 0 otherwise; ``run_cell`` restores one small cell
in every mode, the blind one as ``deblur_blind`` does, with the noise of
its seed."""

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


def _write_seeded_run(path, ssde):
    """One run: one preset at one size, two noise levels and the seeds that
    ``ssde`` maps, from (sigma, seed) to the blind mode's SSDE."""
    rows = [{"size": 191, "preset": "box", "ksize": 13, "sigma": sigma, "seed": seed, "blind": 30.0,
             "ssde": value} for (sigma, seed), value in ssde.items()]
    path.write_text(json.dumps({"source": "test", "rows": rows}))
    return str(path)


# per-seed means 0.0015 and 0.0025: a spread of 0.001 around a mean of 0.002
SEEDED = {(0.01, 1): 0.001, (0.03, 1): 0.002, (0.01, 2): 0.002, (0.03, 2): 0.003}


@pytest.mark.parametrize("after, code", [
    (SEEDED, 0),
    ({**SEEDED, (0.03, 2): 0.006}, 0),  # mean rises by 0.00075, inside the spread
    ({**SEEDED, (0.03, 2): 0.008}, 1),  # mean rises by 0.00125, past it
    ({key: 0.0 for key in SEEDED}, 0),
], ids=["equal", "inside-spread", "past-spread", "better"])
def test_compare_ssde_rule(sweep, tmp_path, capsys, after, code):
    before_path = _write_seeded_run(tmp_path / "before.json", SEEDED)
    after_path = _write_seeded_run(tmp_path / "after.json", after)
    assert sweep.main(["compare", before_path, after_path]) == code
    out = capsys.readouterr().out
    assert "| 191² | box | 0.00200 |" in out and "| 0.00100 |" in out  # the spread is printed
    assert ("rose past the seed spread" in out) == bool(code)


def test_compare_ssde_rule_needs_two_seeds(sweep, tmp_path, capsys):
    one_seed = {key: value for key, value in SEEDED.items() if key[1] == 1}
    before_path = _write_seeded_run(tmp_path / "before.json", one_seed)
    after_path = _write_seeded_run(tmp_path / "after.json", {key: 1.0 for key in one_seed})
    assert sweep.main(["compare", before_path, after_path]) == 0
    assert "SSDE" not in capsys.readouterr().out


def test_rows_without_a_seed_are_seed_1(sweep, tmp_path):
    before_path = _write_run(tmp_path / "before.json", BEFORE)  # rows of runs made before --seeds
    after = [{"size": 191, "preset": preset, "ksize": 15, "sigma": sigma, "seed": 1, "crop": value - 1.0}
             for (preset, sigma), value in BEFORE.items()]
    (tmp_path / "after.json").write_text(json.dumps({"source": "test", "rows": after}))
    assert sweep.main(["compare", before_path, str(tmp_path / "after.json")]) == 1


def test_seed_sets_the_noise(sweep):
    import numpy as np

    _, _, default = sweep.cell_input(64, "box", 9, 0.01)
    _, _, one = sweep.cell_input(64, "box", 9, 0.01, 1)
    _, _, two = sweep.cell_input(64, "box", 9, 0.01, 2)
    assert np.array_equal(default, one) and not np.array_equal(one, two)


def test_run_cell_restores_every_mode_and_blind_is_deblur_blind(sweep):
    import numpy as np

    import salientdeblur as sd

    row = sweep.run_cell(64, "box", 9, 0.01, sweep.MODES)
    assert all(np.isfinite(row[mode]) for mode in sweep.MODES)
    sharp, k_true, blurred = sweep.cell_input(64, "box", 9, 0.01)
    kernel, restored, _ = sd.deblur_blind(blurred, sd.DeblurConfig(kernel_size=9))
    _, shift = sweep.score.ssde(kernel, k_true)
    assert row["blind"] == sweep.score.psnr(restored, sharp, 9, shift)
