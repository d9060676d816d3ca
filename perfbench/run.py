#!/usr/bin/env python3
"""The iplsim benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds `src/iplsim`. With
`--trace 0` it starts one child process that runs the workload's passes for S
seconds and checks every output, and times a fresh interpreter's set-up
several times before and after the child; the last line is a JSON object with
the end-to-end metrics (setup_s, pass_s, cpu_s, peak_rss_mb). With `--trace 1`
the child alternates untraced and traced passes, and the metrics are the
per-layer table.
The lines before the last give each metric with its unit, quartiles and sample
count, failed_frac, the machine facts and, when traced, whether each workload's
stated reason holds. No program setting is changed: IPL_THREADS and the BLAS
thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import monotonic, perf_counter

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples taken before the child and again after it, so that the
# median is not set by one stretch of host speed
SETUP_REPEATS = 6
TIME_LIMIT_S = 170.0
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
# a fresh interpreter imports iplsim and certifies a 4-site lattice
SETUP_PROBE = """
import iplsim
h = iplsim.assemble(iplsim.realize_profile(
    iplsim.ProfileSpec("linear", 2, phi_start=0.5, phi_end=1.0)), iplsim.CellParams(1.0, 2.0, 0.2))
assert iplsim.eigh_tridiagonal(h).size == 4
print(iplsim.__file__)
"""


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def head_commit() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _remaining(deadline: float) -> float:
    left = deadline - monotonic()
    if left <= 0:
        raise BenchmarkError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    return left


def _setup_samples(count: int, deadline: float) -> list[float]:
    """Wall seconds of `count` fresh set-ups."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=_environment(),
                              capture_output=True, text=True, timeout=_remaining(deadline))
        samples.append(perf_counter() - start)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
        if not Path(done.stdout.strip()).resolve().is_relative_to(ROOT / "src"):
            raise BenchmarkError(f"iplsim was imported from {done.stdout.strip()}")
    return samples


def _run_child(args, deadline: float) -> dict:
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        result_path = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path)]
        child = subprocess.Popen(cmd, cwd=ROOT, env=_environment(), stdout=subprocess.DEVNULL)
        try:
            code = child.wait(timeout=_remaining(deadline))
        except (subprocess.TimeoutExpired, BenchmarkError):
            raise BenchmarkError(f"workload child ran past {TIME_LIMIT_S:.0f} s") from None
        finally:
            # on every way out, including a signal, the child is stopped and reaped
            if child.poll() is None:
                child.kill()
                child.wait()
        if code != 0:
            raise BenchmarkError(f"workload child exited with code {code}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"


def _end_to_end(setup: list[float], result: dict) -> tuple[dict, list[str]]:
    walls = [p["wall_s"] for p in result["passes"]]
    cpus = [p["cpu_s"] for p in result["passes"]]
    samples = {"setup_s": setup, "pass_s": walls, "cpu_s": cpus,
               "peak_rss_mb": [result["peak_rss_mb"]]}
    metrics, lines = {}, []
    for name, unit in END_TO_END:
        value = median(samples[name])
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<12} {value:10.4f} {unit:<4} (median; {_quartiles(samples[name])})")
    return metrics, lines


def _per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = result["layers"]
    metrics, lines = {}, []
    for name, unit, _ in LAYER_METRICS:
        value = layers.get(name, 0.0)
        if unit in ("count", "bytes"):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {result['workload']:<15} {name:<42} {value:14.6g} {unit}")
    for claim in result["claims"]:
        verdict = "confirmed" if claim["confirmed"] else "NOT confirmed"
        lines.append(f"  reason: {claim['text']} (share {claim['share']:.3f}): {verdict}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "iplsim" / "__init__.py").is_file():
        print(f"run.py: no iplsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark unwinds, so the child and probes are stopped first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = monotonic() + TIME_LIMIT_S
    try:
        # the first set-up, which may compile bytecode, is not counted
        setup = [] if args.trace else _setup_samples(SETUP_REPEATS + 1, deadline)[1:]
        result = _run_child(args, deadline)
        if not args.trace:
            setup += _setup_samples(SETUP_REPEATS, deadline)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.trace and result["missing_spans"]:
        print(f"run.py: expected spans never fired: {', '.join(result['missing_spans'])}",
              file=sys.stderr)
        return 1

    metrics, lines = _per_layer(result) if args.trace else _end_to_end(setup, result)
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  passes {len(result['passes'])}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print("\n".join(lines))
    print(f"  failed_frac  {failed / attempted:10.4f}      ({failed} of {attempted} operations)")
    print(f"  checksum drift against the seed-commit reference: {result['checksum_drift']} artifacts")
    if args.trace:
        print(f"  spans written to {result['trace_file']}")
    for error in result["errors"]:
        print(f"  failure: {error}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
