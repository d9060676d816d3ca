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

from .analysis import SpectralReport
from .eigensolver import STATE_BLOCK

STATE_HEADER = ("index,eigenvalue,spacing_next,ipr,cfs,com,"
                "w_left,w_right,nodes,band,subdomain,multiplet_id")
SWEEP_HEADER = "lf,fraction,error"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_state_csv(report: SpectralReport, path: str | Path) -> Path:
    """One row per state, ascending; spacing_next is empty on the last row."""
    path = Path(path)
    lines = [STATE_HEADER]
    spac = report.spacings.spacings
    m = report.measures
    for k in range(report.size):
        lines.append(",".join((
            str(k),
            _fmt(report.values[k]),
            _fmt(spac[k]) if k < spac.size else "",
            _fmt(m.ipr[k]),
            _fmt(m.cfs[k]),
            _fmt(m.com[k]),
            _fmt(m.w_left[k]),
            _fmt(m.w_right[k]),
            str(int(m.nodes[k])),
            str(int(report.band_of[k])),
            report.labels.labels[k],
            str(int(report.multiplet_of[k])),
        )))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_spectrum_csv(values: np.ndarray, path: str | Path) -> Path:
    path = Path(path)
    lines = ["index,eigenvalue"]
    lines.extend(f"{k},{_fmt(v)}" for k, v in enumerate(values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_sweep_csv(rows: Iterable[tuple[float, float | None, str]],
                    path: str | Path) -> Path:
    """Sweep table; a failed point keeps its row with an empty fraction."""
    path = Path(path)
    lines = [SWEEP_HEADER]
    for lf, fraction, error in rows:
        frac = _fmt(fraction) if fraction is not None else ""
        lines.append(f"{_fmt(lf)},{frac},{error}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_pgm(rows: np.ndarray, path: str | Path) -> Path:
    """Binary PGM (P5) of a (states x sites) raster in [0, 1], as `eigenstate_map` returns it.

    One image row per raster row, pixel = round(255 * value). The pixels are
    made in blocks of `STATE_BLOCK` rows, so the raster is never copied whole.
    """
    path = Path(path)
    height, width = rows.shape
    pixels = np.empty((height, width), dtype=np.uint8)
    for lo in range(0, height, STATE_BLOCK):
        scaled = np.clip(rows[lo:lo + STATE_BLOCK], 0.0, 1.0)
        scaled *= 255.0
        pixels[lo:lo + STATE_BLOCK] = np.rint(scaled, out=scaled)
        del scaled  # freed before the next block is made
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels)
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
    from .analysis import delocalized_fraction

    bands = [{"start": b.start, "stop": b.stop, "size": len(b)} for b in report.bands.bands]
    sizes = report.multiplets.sizes()
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
