"""Smoke tests of the front ends in scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_presets_writes_one_directory_per_preset(tmp_path, capsys):
    run_presets = load("run_presets")
    assert run_presets.main(["--only", "fig2_3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fig2_3 ")
    assert " s  run    map.pgm, spectrum.csv, states.csv, summary.json\n" in out
    for name in ("spectrum.csv", "states.csv", "map.pgm", "summary.json", "manifest.json"):
        assert (tmp_path / "fig2_3" / name).exists()


def test_run_presets_emit_subset_and_unknown_name(tmp_path, capsys):
    run_presets = load("run_presets")
    assert run_presets.main(["--only", "fig4", "--emit", "csv",
                             "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "fig4" / "map.pgm").exists()
    assert (tmp_path / "fig4" / "states.csv").exists()
    with pytest.raises(SystemExit):
        run_presets.main(["--only", "fig99", "--out", str(tmp_path)])


def test_preset_report_prints_the_structure(capsys):
    preset_report = load("preset_report")
    assert preset_report.main(["fig2_3", "--sites", "40"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fig2_3: 40 sites, linear profile")
    assert "delocalized fraction" in out
    assert "most localized states" in out
