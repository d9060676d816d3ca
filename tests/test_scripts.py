"""Smoke tests of the front ends in scripts/, and of the API the benchmark calls."""

import ast
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
PERFBENCH = ROOT / "perfbench"


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
    assert re.search(r"\npeak RSS \d+\.\d MiB\nartifacts under ", out)
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


@pytest.mark.parametrize("flag, text, message", [
    ("--sites", "2.5", "sites must be an integer, got '2.5'"),
    ("--eps", "abc", "eps must be a number, got 'abc'"),
    ("--tau", "nan", "tau must be finite, got 'nan'"),
])
def test_preset_report_overrides_are_read_by_the_config_types(flag, text, message, capsys):
    preset_report = load("preset_report")
    with pytest.raises(SystemExit) as exit_:
        preset_report.main(["fig2_3", flag, text])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


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


def test_benchmark_view_of_the_api_resolves(capsys, monkeypatch):
    # perfbench/tracer.py wraps every TARGETS attribute by name, and
    # perfbench/run.py times a fresh interpreter running SETUP_PROBE; a renamed
    # or deleted function would crash the benchmark, so it fails here first
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are made
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)

    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    probe = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETUP_PROBE")
    assert "assemble(iplsim.realize_profile(" in probe
    exec(compile(probe, "SETUP_PROBE", "exec"), {})
    assert capsys.readouterr().out.strip().endswith("__init__.py")


def test_the_readmes_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    # the raw vectors the reader kept are the certified eigenvectors of h
    h, eig, vectors = scope["h"], scope["eig"], scope["vectors"]
    residual = h.dense() @ vectors.T - vectors.T * eig.values
    assert abs(residual).max() <= 1e-12
