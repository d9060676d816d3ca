#!/usr/bin/env python3
"""Compare two run directories field by field and explain any drift.

CSV files are compared column by column, JSON files key by key (nested keys
joined with dots, list items as [i]) and PGM rasters pixel by pixel. For each
field that differs it prints the largest absolute and relative deviation, the
number of rows that changed at all, and the number that changed at O(1): a
relative deviation of at least 0.1, any change of an integer or text cell, or
a row present on one side only. For a PGM raster a row is one raster row.
Files of any other kind are compared byte by byte.

    python3 scripts/artifact_diff.py out_before/fig1 out_after/fig1

Exits 0 when the two directories are identical and 1 when they differ.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from iplsim.output import read_pgm

# a relative deviation at least this large is a change of the value itself,
# not of its last bits
O1_REL = 0.1


@dataclass
class FieldDiff:
    """How one field (CSV column, JSON key or PGM raster) differs between two runs."""

    name: str
    rows: int
    changed: int = 0
    o1: int = 0
    max_abs: float | None = None
    max_rel: float | None = None

    def add(self, abs_dev: float | None, rel_dev: float | None, at_o1: bool) -> None:
        self.changed += 1
        self.o1 += at_o1
        if abs_dev is not None:
            self.max_abs = max(self.max_abs or 0.0, abs_dev)
            self.max_rel = max(self.max_rel or 0.0, rel_dev)

    def line(self, width: int) -> str:
        def fmt(x):
            return "-" if x is None else f"{x:.1e}"

        return (f"  {self.name:<{width}}  max abs {fmt(self.max_abs):>7}  "
                f"max rel {fmt(self.max_rel):>7}  {self.changed} of {self.rows} rows "
                f"changed, {self.o1} at O(1)")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def deviation(a, b) -> tuple[float | None, float | None, bool]:
    """Absolute and relative deviation of two unequal cells, and whether it is O(1).

    The deviations are None when either cell is not a finite number.
    """
    if _is_number(a) and _is_number(b):
        abs_dev = abs(a - b)
        rel_dev = abs_dev / max(abs(a), abs(b)) if abs_dev else 0.0
        if math.isfinite(rel_dev):
            at_o1 = (isinstance(a, int) and isinstance(b, int)) or rel_dev >= O1_REL
            return abs_dev, rel_dev, at_o1
    return None, None, True


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def diff_columns(columns_a: dict, columns_b: dict) -> list[FieldDiff]:
    """Per-field diffs of two {name: [cells]} tables; a missing cell is an O(1) change."""
    diffs = []
    for name in list(columns_a) + [n for n in columns_b if n not in columns_a]:
        a, b = columns_a.get(name, []), columns_b.get(name, [])
        field = FieldDiff(name, rows=max(len(a), len(b)))
        for x, y in zip(a, b):
            if x != y:
                field.add(*deviation(x, y))
        for _ in range(abs(len(a) - len(b))):
            field.add(None, None, True)
        if field.changed:
            diffs.append(field)
    return diffs


def read_csv_columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [_cell(row[i]) if i < len(row) else None for row in rows]
            for i, name in enumerate(header)}


def flatten_json(doc, prefix: str = "") -> dict:
    """Leaves of a JSON document keyed by their path, each as a one-row column."""
    if isinstance(doc, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in doc.items())
    elif isinstance(doc, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(doc))
    else:
        return {prefix: [doc]}
    leaves = {}
    for key, value in items:
        leaves.update(flatten_json(value, key))
    return leaves


def diff_pgm(path_a: Path, path_b: Path) -> list[FieldDiff]:
    a, b = read_pgm(path_a).astype(float), read_pgm(path_b).astype(float)
    if a.shape != b.shape:
        field = FieldDiff(f"pixels {a.shape[1]}x{a.shape[0]} vs {b.shape[1]}x{b.shape[0]}",
                          rows=max(a.shape[0], b.shape[0]))
        field.add(None, None, True)
        return [field]
    abs_dev = np.abs(a - b)
    rel_dev = np.divide(abs_dev, np.maximum(a, b), out=np.zeros_like(abs_dev),
                        where=abs_dev > 0)
    field = FieldDiff("pixels", rows=a.shape[0],
                      changed=int(np.count_nonzero(abs_dev.any(axis=1))),
                      o1=int(np.count_nonzero((rel_dev >= O1_REL).any(axis=1))))
    if field.changed:
        field.max_abs, field.max_rel = float(abs_dev.max()), float(rel_dev.max())
        return [field]
    return []


def diff_file(path_a: Path, path_b: Path) -> tuple[int, list[FieldDiff]]:
    """(number of fields, the fields that differ) of one artifact present in both runs."""
    suffix = path_a.suffix.lower()
    if suffix == ".csv":
        a, b = read_csv_columns(path_a), read_csv_columns(path_b)
    elif suffix == ".json":
        a = flatten_json(json.loads(path_a.read_text(encoding="utf-8")))
        b = flatten_json(json.loads(path_b.read_text(encoding="utf-8")))
    elif suffix == ".pgm":
        return 1, diff_pgm(path_a, path_b)
    else:
        return 1, [FieldDiff("bytes", rows=1, changed=1, o1=1)]
    return len(set(a) | set(b)), diff_columns(a, b)


def compare(dir_a: Path, dir_b: Path) -> tuple[bool, list[str]]:
    """Whether two run directories are identical, and the report lines."""
    files_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    files_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    lines, differing = [], 0
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            differing += 1
            lines.append(f"{name}: only in {'A' if name in files_a else 'B'}")
            continue
        path_a, path_b = dir_a / name, dir_b / name
        if path_a.read_bytes() == path_b.read_bytes():
            lines.append(f"{name}: identical")
            continue
        differing += 1
        total, diffs = diff_file(path_a, path_b)
        if not diffs:
            lines.append(f"{name}: bytes differ, every field equal")
            continue
        lines.append(f"{name}: {len(diffs)} of {total} fields differ")
        width = max(len(d.name) for d in diffs)
        lines.extend(d.line(width) for d in diffs)
    total_files = len(files_a | files_b)
    lines.append("identical" if not differing else f"{differing} of {total_files} files differ")
    return not differing, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, metavar="A", help="first run directory")
    parser.add_argument("b", type=Path, metavar="B", help="second run directory")
    args = parser.parse_args(argv)
    for directory in (args.a, args.b):
        if not directory.is_dir():
            parser.error(f"not a directory: {directory}")
    same, lines = compare(args.a, args.b)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
