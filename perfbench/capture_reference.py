#!/usr/bin/env python3
"""Capture the reference the correctness gate compares against.

Runs every writing operation of the benchmark workloads at each workload seed
in `REFERENCE_SEEDS` once and records, per command line, the artifact
checksums, the structural fields of summary.json, the eigenvalues and the
sweep fractions. The seeds cover the default seed 0 and the seeds record.py
runs (1-20). Run it only on the commit whose outputs define "correct":

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
from child import REFERENCE, ROOT, WORK, Runner, cli_main
from run import head_commit
from tracer import Tracer
from workloads import WORKLOADS

REFERENCE_SEEDS = range(21)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / "reference"
    entries: dict[str, dict] = {}
    try:
        for seed in REFERENCE_SEEDS:
            for name in ("figures", "large_lattice", "sweep_oracle"):
                ops = [op for op in WORKLOADS[name].ops(seed)
                       if op.kind != "oracle" and op.key not in entries]
                runner = Runner(ops, work, {}, cli_main, Tracer())
                for i, op in enumerate(ops):
                    out = work / f"{name}-{seed}-{i}"
                    rc, _ = runner.call(op, out)
                    if rc != 0:
                        print(f"{op.key}: exit code {rc}", file=sys.stderr)
                        return 1
                    entries[op.key] = checks.reference_entry(op, out)
                    print(f"captured {op.key}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}"
                      for key, entry in sorted(entries.items()))
    REFERENCE.write_text(f'{{"commit": {json.dumps(head_commit())},\n "ops": {{\n{body}\n}}}}\n',
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
