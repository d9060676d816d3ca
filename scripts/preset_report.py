#!/usr/bin/env python3
"""Print a terminal summary of one bundled design.

Bands, subdomain counts, the delocalized fraction, the multiplet size
histogram, and the most localized states, without writing any files. Handy
for eyeballing how an override shifts the structure before committing to a
full artifact run.
"""

import argparse
import sys
from collections import Counter

from iplsim import PRESETS, delocalized_fraction, preset_config, run_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=sorted(PRESETS), metavar="NAME",
                        help="preset name; see `iplsim list-presets`")
    parser.add_argument("--sites", type=int, help="override the lattice size")
    parser.add_argument("--eps", type=float, help="override the cell coupling")
    parser.add_argument("--tau", type=float, help="override the delocalization threshold")
    parser.add_argument("--top", type=int, default=5,
                        help="how many of the most localized states to list (default 5)")
    args = parser.parse_args(argv)

    overrides = {key: value for key, value in
                 (("sites", args.sites), ("eps", args.eps), ("tau", args.tau))
                 if value is not None}
    config = preset_config(args.name, overrides or None)
    h, eig, report = run_config(config)

    print(f"{args.name}: {h.sites} sites, {config.profile.kind} profile, "
          f"eps = {config.params.eps}")
    print(f"spectrum [{eig.values[0]:.4f}, {eig.values[-1]:.4f}], "
          f"solver residual bound {eig.residual_bound:.1e}")

    print(f"\nbands ({len(report.bands.bands)}"
          f"{', low confidence' if report.bands.low_confidence else ''}):")
    labels = report.labels.labels
    for i, band in enumerate(report.bands.bands):
        counts = Counter(labels[k] for k in band)
        parts = "/".join(f"{counts.get(s, 0)}{s}" for s in "ABC")
        print(f"  band {i}: states {band.start}..{band.stop - 1}, "
              f"eigenvalues {eig.values[band.start]:.4f}.."
              f"{eig.values[band.stop - 1]:.4f}, subdomains {parts}")

    print(f"\ndelocalized fraction {delocalized_fraction(report.labels):.4f}"
          f" (tau = {config.thresholds.tau:g})")
    if report.labels.interior_localized:
        print(f"note: {report.labels.interior_localized} localized state(s) "
              f"strictly inside a B segment")

    histogram = Counter(report.multiplets.sizes())
    pretty = ", ".join(f"{size}x{count}" for size, count in sorted(histogram.items()))
    print(f"multiplet sizes (size x count): {pretty}")

    m = report.measures
    ranked = sorted(range(report.size), key=lambda k: -m.ipr[k])
    print(f"\n{args.top} most localized states:")
    print("  state  eigenvalue      ipr      com  nodes  label")
    for k in ranked[:args.top]:
        print(f"  {k:>5}  {eig.values[k]:>10.6f}  {m.ipr[k]:7.4f}  {m.com[k]:7.1f}"
              f"  {m.nodes[k]:>5}  {labels[k]:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
