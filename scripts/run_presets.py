#!/usr/bin/env python3
"""Run bundled designs and write their artifacts under one root directory.

Each preset lands in <out>/<name>/ with its manifest, so the whole set can be
replayed or checksum-compared later. Without --only, runs everything,
including the full focusing sweep (the slowest entry by far). Every preset
runs as `iplsim preset <name> --out <out>/<name>`. After the table comes the
process's peak resident set size, so a memory regression shows here too.
"""

import argparse
import contextlib
import io
import resource
import sys
import time
from pathlib import Path

from iplsim import PRESETS, load_manifest
from iplsim.cli import main as iplsim_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="root output directory")
    parser.add_argument("--only", nargs="*", metavar="NAME",
                        help="subset of preset names (default: all)")
    parser.add_argument("--emit", action="append", choices=("csv", "pgm", "json"),
                        help="artifact kinds for non-sweep presets (default: all)")
    args = parser.parse_args(argv)

    names = args.only or list(PRESETS)
    unknown = [n for n in names if n not in PRESETS]
    if unknown:
        parser.error(f"unknown preset(s): {', '.join(unknown)}; "
                     f"known: {', '.join(PRESETS)}")

    root = Path(args.out)
    width = max(len(n) for n in names)
    for name in names:
        argv = ["preset", name, "--out", str(root / name)]
        # a sweep writes sweep.csv only and refuses other kinds
        if args.emit and PRESETS[name].sweep_lf_values is None:
            argv += [flag for kind in args.emit for flag in ("--emit", kind)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = iplsim_main(argv)
        elapsed = time.perf_counter() - start
        if status:
            return status
        manifest = load_manifest(root / name / "manifest.json")
        files = ", ".join(sorted(manifest.checksums))
        print(f"{name:<{width}}  {elapsed:6.1f} s  {manifest.kind:<5}  {files}")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    print(f"artifacts under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
