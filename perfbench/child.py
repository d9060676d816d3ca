"""One workload run in its own process, started by run.py.

It imports iplsim from the checkout's `src`, warms up, then runs passes of the
workload's operations through `iplsim.cli.main` in-process until the time is
up, checking every operation. A traced run alternates untraced and traced
passes, installing the tracer for the traced ones only, so each traced pass is
compared with its untraced neighbours under the same host conditions.
The raw per-pass samples, counts and per-layer table go to a JSON result file.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import checks
from tracer import Tracer, layer_table, median_table
from workloads import WARMUP_OPS, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
THREAD_VARIABLES = ("IPL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MAX_ERRORS = 20


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cli_main(argv: list[str]) -> int:
    import iplsim.cli

    return iplsim.cli.main(argv)


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    drift: int = 0
    failed_points: int = 0
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


class Runner:
    """Runs a workload's operations pass after pass, each into a fresh directory."""

    def __init__(self, ops: list[Op], work: Path, reference: dict,
                 main: Callable[[list[str]], int], tracer: Tracer):
        self.ops, self.work, self.reference, self.main = ops, work, reference, main
        self.tracer = tracer
        self.spans: list = []
        self._first: dict[str, dict[str, str]] = {}
        self._count = 0

    def call(self, op: Op, out: Path) -> tuple[int | None, str]:
        argv = list(op.argv) + ([] if op.kind == "oracle" else ["--out", str(out)])
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            try:
                rc = self.main(argv)
            except Exception:  # a crash is a failed operation; the run goes on
                traceback.print_exc()
                rc = None
        return rc, buffer.getvalue()

    def run_pass(self, traced: bool) -> PassResult:
        result = PassResult(traced)
        with self.tracer.installed() if traced else nullcontext():
            for i, op in enumerate(self.ops):
                out = self.work / f"pass{self._count}-op{i}"
                cpu, start = _cpu_s(), perf_counter()
                with self.tracer.recording() if traced else nullcontext():
                    rc, stdout = self.call(op, out)
                result.wall_s += perf_counter() - start
                result.cpu_s += _cpu_s() - cpu

                outcome = checks.check(op, rc, stdout, out, self.reference.get(op.key))
                shutil.rmtree(out, ignore_errors=True)
                if outcome.digests:
                    first = self._first.setdefault(op.key, outcome.digests)
                    if outcome.digests != first:
                        outcome.failed = op.count
                        outcome.errors.append(f"{op.key}: artifacts differ from the first repeat")
                result.attempted += outcome.attempted
                result.failed += outcome.failed
                result.drift += outcome.drift
                result.failed_points += outcome.failed_points
                result.errors += outcome.errors
        self._count += 1
        if traced:
            spans = self.tracer.take()
            self.spans += spans
            result.layers = layer_table(spans)
            result.layers["output.checksum_drift"] = result.drift
            result.layers["experiments.sweep_lf.failed_points"] = result.failed_points
        return result

    def timed(self, seconds: float, trace: bool) -> list[PassResult]:
        """Back-to-back passes for about `seconds`: a pass starts only while more
        than half a typical pass is left, so a run overshoots by at most about
        half a pass. With `trace`, every other pass is traced, starting with an
        untraced one, and there are at least two passes; else at least one."""
        passes: list[PassResult] = []
        start = perf_counter()
        while len(passes) < 1 + trace or \
                seconds - (perf_counter() - start) > median(p.wall_s for p in passes) / 2:
            passes.append(self.run_pass(traced=trace and len(passes) % 2 == 1))
        return passes


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
                 reference: dict | None = None,
                 main: Callable[[list[str]], int] = cli_main) -> dict:
    """Warm up, run the timed passes, and summarize them (raw samples included)."""
    runner = Runner(workload.ops(seed), work, reference or {}, main, Tracer())
    for i, op in enumerate(WARMUP_OPS):
        runner.call(op, work / f"warmup-{i}")

    passes = runner.timed(seconds, trace)
    errors = [e for p in passes for e in p.errors]
    result = {
        "workload": workload.name,
        "seed": seed,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors[:MAX_ERRORS],
        "checksum_drift": max(p.drift for p in passes),
        "spans": runner.spans,
    }
    if trace:
        traced = [i for i, p in enumerate(passes) if p.traced]
        layers = median_table([passes[i].layers for i in traced])
        layers["trace.pass_s"] = median(passes[i].wall_s for i in traced)
        layers["trace.overhead_s"] = median(_overhead(passes, i) for i in traced)
        seen = {s.name for s in runner.spans}
        result["layers"] = layers
        result["missing_spans"] = sorted(workload.spans - seen)
        result["claims"] = [_judge(claim, layers) for claim in workload.claims]
    return result


def _overhead(passes: list[PassResult], i: int) -> float:
    """Traced pass i's wall time minus the mean of its untraced neighbours'."""
    neighbours = [p.wall_s for p in passes[i - 1:i + 2] if not p.traced]
    return passes[i].wall_s - sum(neighbours) / len(neighbours)


def _judge(claim, layers: dict[str, float]) -> dict:
    share = sum(layers.get(name, 0.0) for name in claim.layers) / layers["trace.pass_s"]
    confirmed = share > claim.share if claim.above else share < claim.share
    return {"text": claim.text, "share": share, "confirmed": confirmed}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration")),
        "env": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload in-process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import iplsim

    if not Path(iplsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"child: iplsim imported from {iplsim.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["ops"]
    work = WORK / f"run-{os.getpid()}"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = result.pop("spans")
    if spans:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([asdict(s) for s in spans]), encoding="utf-8")
        result["trace_file"] = str(path.relative_to(ROOT))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["machine"] = machine_facts()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
