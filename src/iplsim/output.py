"""Deterministic artifact writers: CSV tables, binary PGM rasters, canonical JSON.

Every writer is a pure function of its inputs so that rerunning a manifest
reproduces byte-identical files. Floats are printed with repr, the shortest
decimal that round-trips; text files are UTF-8 with LF endings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .analysis import SpectralReport, delocalized_fraction

STATE_HEADER = ("index,eigenvalue,spacing_next,ipr,cfs,com,"
                "w_left,w_right,nodes,band,subdomain,multiplet_id")
SWEEP_HEADER = "lf,fraction,error"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_state_csv(report: SpectralReport, path: str | Path) -> Path:
    """One row per state, ascending; spacing_next is empty on the last row.

    band and multiplet_id number each state's band and multiplet in order;
    both partitions tile the spectrum in ascending order.
    """
    path = Path(path)
    m = report.measures
    # each column becomes Python scalars once; repr of a float is what _fmt gives
    columns = (
        map(str, range(report.size)),
        map(repr, report.values.tolist()),
        [*map(repr, report.spacings.spacings.tolist()), ""],
        *(map(repr, col.tolist()) for col in (m.ipr, m.cfs, m.com, m.w_left, m.w_right)),
        map(str, m.nodes.tolist()),
        (str(i) for i, band in enumerate(report.bands.bands) for _ in band),
        report.labels.labels.tolist(),
        (str(i) for i, group in enumerate(report.multiplets) for _ in group.members),
    )
    lines = [STATE_HEADER]
    lines.extend(map(",".join, zip(*columns)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_spectrum_csv(values: np.ndarray, path: str | Path) -> Path:
    path = Path(path)
    lines = ["index,eigenvalue"]
    lines.extend(f"{k},{v!r}" for k, v in enumerate(np.asarray(values, dtype=float).tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_sweep_csv(rows: Iterable[tuple[float, float | None, str]],
                    path: str | Path) -> Path:
    """Sweep table; a failed point keeps its row with an empty fraction.

    An error that holds a comma, a quote, a carriage return or a newline is
    quoted as RFC 4180 does, so every row reads back as three fields.
    """
    path = Path(path)
    lines = [SWEEP_HEADER]
    for lf, fraction, error in rows:
        if any(c in error for c in ',"\r\n'):  # csv.writer would leave a bare CR unquoted
            error = '"' + error.replace('"', '""') + '"'
        lines.append(f"{_fmt(lf)},{'' if fraction is None else _fmt(fraction)},{error}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_pgm(pixels: np.ndarray, path: str | Path) -> Path:
    """Binary PGM (P5) of a (rows x width) uint8 pixel array, as `eigenstate_map` returns it.

    One image row per array row, written as it is. Anything but a 2-D uint8
    array is refused, so a float raster is never cast silently.
    """
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise ValueError(f"write_pgm needs a 2-D uint8 pixel array, got "
                         f"{pixels.ndim}-D {pixels.dtype}")
    path = Path(path)
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels))
    return path


def write_json(doc: dict[str, Any], path: str | Path) -> Path:
    """Canonical JSON: sorted keys, two-space indent, LF, no NaN."""
    path = Path(path)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def read_pgm(path: str | Path) -> np.ndarray:
    """Inverse of write_pgm: the (rows x width) pixel array of a binary PGM."""
    raw = Path(path).read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height = (int(t) for t in dims.split())
    if int(maxval) != 255:
        raise ValueError(f"{path}: unsupported maxval {int(maxval)}")
    pixels = np.frombuffer(rest[:width * height], dtype=np.uint8)
    return pixels.reshape(height, width)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def summary_document(report: SpectralReport, extras: dict[str, Any] | None = None) -> dict[str, Any]:
    """Condensed run statistics for summary.json."""
    bands = [{"start": b.start, "stop": b.stop, "size": len(b)} for b in report.bands.bands]
    sizes = [g.size for g in report.multiplets]
    histogram = {str(s): sizes.count(s) for s in sorted(set(sizes))}
    doc: dict[str, Any] = {
        "states": report.size,
        "bands": bands,
        "band_low_confidence": report.bands.low_confidence,
        "gaps": [{"width": w, "after_state": i} for w, i in report.bands.gaps],
        "delocalized_fraction": delocalized_fraction(report.labels),
        "interior_localized": report.labels.interior_localized,
        "subdomain_counts": {
            lab: int(np.sum(report.labels.labels == lab)) for lab in ("A", "B", "C")
        },
        "multiplet_size_histogram": histogram,
        "thresholds": asdict(report.thresholds),
    }
    if extras:
        doc.update(extras)
    return doc
