"""Smoke tests of the front ends in scripts/."""

import importlib.util
import json
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


def test_artifact_diff_finds_no_drift_between_reruns_and_names_a_perturbed_column(
        tmp_path, capsys):
    run_presets, artifact_diff = load("run_presets"), load("artifact_diff")
    first, second = tmp_path / "first", tmp_path / "second"
    for root in (first, second):
        assert run_presets.main(["--only", "fig4", "--out", str(root)]) == 0
    capsys.readouterr()
    assert artifact_diff.main([str(first / "fig4"), str(second / "fig4")]) == 0
    assert capsys.readouterr().out.endswith("identical\n")

    states = second / "fig4" / "states.csv"
    header, *rows = states.read_text().splitlines()
    column = header.split(",").index("ipr")
    cells = rows[7].split(",")
    cells[column] = repr(2.0 * float(cells[column]))
    rows[7] = ",".join(cells)
    states.write_text("\n".join([header, *rows]) + "\n")
    assert artifact_diff.main([str(first / "fig4"), str(second / "fig4")]) == 1
    out = capsys.readouterr().out
    assert "states.csv: 1 of 12 fields differ\n" in out
    assert "max rel 5.0e-01  1 of 302 rows changed, 1 at O(1)" in out
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == ["ipr"]
    assert out.endswith("1 of 5 files differ\n")

    raster = second / "fig4" / "map.pgm"
    data = bytearray(raster.read_bytes())
    data[-1] = 255 if data[-1] < 128 else 0
    raster.write_bytes(bytes(data))
    summary = second / "fig4" / "summary.json"
    doc = json.loads(summary.read_text())
    doc["bands"][0]["size"] += 1
    summary.write_text(json.dumps(doc))
    assert artifact_diff.main([str(first / "fig4"), str(second / "fig4")]) == 1
    out = capsys.readouterr().out
    assert "\n  pixels  " in out and " rows changed, 1 at O(1)\n" in out
    assert "\n  bands[0].size  " in out
    assert out.endswith("3 of 5 files differ\n")
