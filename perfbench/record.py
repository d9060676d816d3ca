#!/usr/bin/env python3
"""Run the benchmark over ten seeds per workload and record the summary.

For every workload in BENCHMARK.json it makes one untraced run per seed and
prints, for every end-to-end metric, the median, the quartiles and the spread
(quartile distance over median) next to the metric's bound, plus failed_frac
and the correctness verdict. One traced run per workload then gives the
per-layer table. The set is stored in perfbench/baseline.json under its first
seed, next to the sets recorded before, and its medians are compared with
those of every stored set of the same commit: two sets of runs of the same
code must agree within the bounds.

    python3 perfbench/record.py [--first-seed 1]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import head_commit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEEDS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (final JSON object, machine facts)."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited with "
                           f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine: "):]) for line in lines
                   if line.startswith("machine: "))
    claims = [line.strip() for line in lines if line.strip().startswith("reason: ")]
    result = json.loads(lines[-1])
    result["claims"] = claims
    return result, machine


def summarize(values: list[float]) -> dict:
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid, "values": values}


def record_set(spec: dict, seeds: list[int]) -> tuple[dict, dict]:
    """Runs every workload on `seeds`, printing as it goes: (the set, machine facts)."""
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry: dict = {"commit": head_commit(), "seeds": seeds, "end_to_end": {}, "per_layer": {}}
    machine: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, machine = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in result["metrics"].items()), file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        summary["failed_frac"] = failed / attempted
        summary["correct"] = all(r["correct"] for r in runs)
        entry["end_to_end"][workload] = summary

        print(f"\n{workload}: {len(runs)} runs, failed_frac {failed}/{attempted} = "
              f"{failed / attempted:.4f}, {'correct' if summary['correct'] else 'INCORRECT'}")
        for name, bound in bounds.items():
            s = summary[name]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<12} median {s['median']:9.4f} {unit:<4} q1 {s['q1']:9.4f} "
                  f"q3 {s['q3']:9.4f}  spread {s['spread']:.4f}  bound {bound}  "
                  f"spread/bound {s['spread'] / bound:.2f}")

        traced, _ = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"][workload] = {
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            "reasons": traced["claims"]}
        for name, metric in traced["metrics"].items():
            print(f"  {workload:<15} {name:<42} {metric['value']:14.6g} {metric['unit']}")
        for claim in traced["claims"]:
            print(f"  {claim}")
        sys.stdout.flush()
    return entry, machine


def compare(spec: dict, entry: dict, other: dict) -> bool:
    """Prints how far each median of `entry` lies from `other`'s; True if all are
    within the metric's bound."""
    agree = True
    for workload, summary in entry["end_to_end"].items():
        if workload not in other["end_to_end"]:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            change = summary[name]["median"] / other["end_to_end"][workload][name]["median"] - 1
            ok = abs(change) <= bound
            agree &= ok
            print(f"  {workload:<15} {name:<12} {change:+.4f} (bound {bound}) "
                  f"{'ok' if ok else 'OUTSIDE'}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = list(range(args.first_seed, args.first_seed + SEEDS_PER_SET))

    entry, machine = record_set(spec, seeds)
    doc = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    sets = {k: v for k, v in doc.get("sets", {}).items() if k != str(args.first_seed)}
    agree = True
    for key, other in sorted(sets.items()):
        if other["commit"] == entry["commit"]:
            print(f"\nseeds {seeds[0]}-{seeds[-1]} against the set from seed {key}:")
            agree &= compare(spec, entry, other)
    sets[str(args.first_seed)] = entry
    doc = {"run_seconds": spec["run_seconds"], "machine": machine, "sets": sets}
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
