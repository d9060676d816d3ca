"""The benchmark's own tests.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import iplsim.experiments  # noqa: E402
import run  # noqa: E402
from iplsim.eigensolver import SolverError  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = WORKLOADS["smoke"]
EXACT_COUNTS = ("eigensolver.sites_solved", "measures.state_measures.calls",
                "output.bytes_written", "eigensolver.vector_mb")


def _smoke(work: Path, trace: bool = False, main=child.cli_main, workload=SMOKE) -> dict:
    return child.run_workload(workload, seed=5, seconds=0.2, trace=trace, work=work, main=main)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tiny_configuration_runs_end_to_end():
    done = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_run_reports_every_layer_metric():
    done = _bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in LAYER_METRICS]
    assert result["metrics"]["experiments.sweep_lf.pool_speedup"]["value"] > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_corrupted_artifact_counts_as_failure(tmp_path):
    def corrupting_main(argv):
        rc = child.cli_main(argv)
        if argv[0] == "preset":
            out = Path(argv[argv.index("--out") + 1])
            (out / "spectrum.csv").write_text("index,eigenvalue\n0,not-a-number\n")
        return rc

    result = _smoke(tmp_path, main=corrupting_main)
    presets = sum(op.kind == "run" for op in SMOKE.ops(5))
    assert result["failed"] == presets * len(result["passes"])
    assert any("spectrum.csv" in e for e in result["errors"])


def test_injected_solver_error_counts_as_failure(tmp_path, monkeypatch):
    def failing_solver(h):
        raise SolverError("injected by the test")

    monkeypatch.setattr(iplsim.experiments, "eigh_tridiagonal", failing_solver)
    result = _smoke(tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert any("exit code 3" in e for e in result["errors"])
    # the sweep turns the exception into rows; each row is a failed operation
    assert any("SolverError: injected by the test" in e for e in result["errors"])


def test_output_that_changes_between_repeats_counts_as_failure(tmp_path):
    calls = {"n": 0}

    def drifting_main(argv):
        rc = child.cli_main(argv)
        if argv[0] == "oracle-check":
            calls["n"] += 1
            print(f"call {calls['n']}")
        return rc

    result = _smoke(tmp_path, main=drifting_main)
    assert len(result["passes"]) > 1
    assert result["failed"] == len(result["passes"]) - 1
    assert any("differ from the first repeat" in e for e in result["errors"])


def test_exact_counts_repeat_across_runs(tmp_path):
    first = _smoke(tmp_path / "a", trace=True)
    second = _smoke(tmp_path / "b", trace=True)
    assert first["failed"] == second["failed"] == 0
    assert first["missing_spans"] == []
    for name in EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name] > 0, name


def test_a_span_that_never_fires_is_reported(tmp_path):
    blind = dataclasses.replace(SMOKE, spans=SMOKE.spans | {"experiments.replay"})
    assert _smoke(tmp_path, trace=True, workload=blind)["missing_spans"] == ["experiments.replay"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])


def test_two_band_warnings_are_counted_as_spans():
    import iplsim as ip
    from tracer import Tracer, layer_table

    uniform_chain = ip.RunConfig(params=ip.CellParams(1.0, 1.0, 0.2),
                                 profile=ip.ProfileSpec("linear", 20, phi_start=0.3, phi_end=1.2))
    tracer = Tracer()
    with tracer.installed(), tracer.recording(), \
            pytest.warns(UserWarning, match="expected 2 bands"):
        ip.experiments.run_config(uniform_chain)
    table = layer_table(tracer.take())
    assert table["analysis.two_band_warnings"] == 1
    assert table["analysis.analyze.calls"] == 1


def test_reference_covers_the_seeds_record_runs():
    from capture_reference import REFERENCE_SEEDS

    reference = json.loads(child.REFERENCE.read_text())["ops"]
    for seed in REFERENCE_SEEDS:
        for name in ("figures", "large_lattice", "sweep_oracle"):
            for op in WORKLOADS[name].ops(seed):
                assert op.kind == "oracle" or op.key in reference, (seed, op.key)
