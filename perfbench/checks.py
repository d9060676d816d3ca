"""Per-operation correctness gate.

An operation fails on a non-zero exit code, a missing or unparsable artifact,
a mismatch against the seed-commit reference, or (for the sweep, one operation
per point) a row with a non-empty `error`. The runner adds one more rule:
every repeat within a run must produce the bytes of the first repeat.

The reference covers workload seeds 0-20 (see capture_reference.py). Where
it has no entry (another workload seed changes the seeds of the random
presets), the eigenvalues are checked against an independent LAPACK route
(`sterf`) on the Hamiltonian the manifest describes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RUN_ARTIFACTS = ("spectrum.csv", "states.csv", "map.pgm", "summary.json")
EIGENVALUE_RTOL = 1e-10
STATE_COLUMNS = 12
SWEEP_HEADER = "lf,fraction,error"
ORACLE_LINE = re.compile(r"oracle-check: (\d+) instances agree;")
SUMMARY_FIELDS = ("states", "bands", "subdomain_counts", "delocalized_fraction",
                  "multiplet_size_histogram")


class CheckFailure(Exception):
    """An artifact is missing, unparsable, or disagrees with what it must equal."""


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    drift: int = 0
    failed_points: int = 0
    errors: list[str] = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op, rc: int | None, stdout: str, out: Path, reference: dict | None) -> Outcome:
    outcome = Outcome(attempted=op.count)
    if rc != 0:
        outcome.failed = op.count
        outcome.errors.append(f"{op.key}: exit code {rc}")
        return outcome
    try:
        if op.kind == "run":
            _check_run(out, reference, outcome)
        elif op.kind == "sweep":
            _check_sweep(op, out, reference, outcome)
        else:
            _check_oracle(op, stdout, outcome)
    except (CheckFailure, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        outcome.failed = op.count
        outcome.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
    return outcome


def _artifacts(out: Path, names) -> tuple[dict, dict[str, bytes]]:
    """Read manifest.json and the artifacts it must list with matching sha256."""
    manifest_bytes = (out / "manifest.json").read_bytes()
    manifest = json.loads(manifest_bytes)
    data = {name: (out / name).read_bytes() for name in names}
    if set(manifest["checksums"]) != set(names):
        raise CheckFailure(f"manifest lists {sorted(manifest['checksums'])}")
    for name, raw in data.items():
        if manifest["checksums"][name] != sha256(raw):
            raise CheckFailure(f"{name} does not match its manifest checksum")
    data["manifest.json"] = manifest_bytes
    return manifest, data


def _lines(raw: bytes, header: str | None = None) -> list[str]:
    text = raw.decode("utf-8")
    if not text.endswith("\n"):
        raise CheckFailure("file does not end with a newline")
    lines = text[:-1].split("\n")
    if header is not None and lines[0] != header:
        raise CheckFailure(f"unexpected header {lines[0]!r}")
    return lines[1:]


def _check_run(out: Path, reference: dict | None, outcome: Outcome) -> None:
    manifest, data = _artifacts(out, RUN_ARTIFACTS)
    outcome.digests = {name: sha256(raw) for name, raw in data.items()}

    rows = [line.split(",") for line in _lines(data["spectrum.csv"], "index,eigenvalue")]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise CheckFailure("spectrum.csv indices are not 0..n-1")
    values = np.array([float(r[1]) for r in rows])
    n = values.size
    if n == 0 or np.any(np.diff(values) < 0):
        raise CheckFailure("spectrum.csv eigenvalues are empty or not ascending")

    states = [line.split(",") for line in _lines(data["states.csv"])]
    if len(states) != n or any(len(r) != STATE_COLUMNS for r in states):
        raise CheckFailure("states.csv has the wrong shape")
    if any(float(r[1]) != v for r, v in zip(states, values)):
        raise CheckFailure("states.csv eigenvalues differ from spectrum.csv")

    magic, dims, maxval, pixels = data["map.pgm"].split(b"\n", 3)
    width, height = (int(t) for t in dims.split())
    if magic != b"P5" or maxval != b"255" or width != n or len(pixels) != width * height:
        raise CheckFailure("map.pgm header or size is wrong")

    summary = json.loads(data["summary.json"])
    if (summary["states"] != n or sum(b["size"] for b in summary["bands"]) != n
            or sum(summary["subdomain_counts"].values()) != n):
        raise CheckFailure("summary.json counts do not add up to the state count")

    if reference is None:
        expected = _independent_eigenvalues(manifest)
    else:
        expected = np.array(reference["eigenvalues"])
        if summary_structure(summary) != reference["summary"]:
            raise CheckFailure("summary.json structure differs from the reference")
        outcome.drift = sum(outcome.digests.get(name) != digest
                            for name, digest in reference["checksums"].items())
    if expected.shape != values.shape or \
            np.max(np.abs(values - expected)) > EIGENVALUE_RTOL * np.max(np.abs(expected)):
        raise CheckFailure("eigenvalues differ from the reference beyond 1e-10 relative")


def summary_structure(summary: dict) -> dict:
    """The structural fields of summary.json that the reference pins exactly."""
    structure = {k: summary[k] for k in SUMMARY_FIELDS}
    structure["gap_positions"] = [g["after_state"] for g in summary["gaps"]]
    return structure


def _independent_eigenvalues(manifest: dict) -> np.ndarray:
    import scipy.linalg
    from iplsim.experiments import RunManifest, build_hamiltonian

    h = build_hamiltonian(RunManifest.from_dict(manifest).config())
    return scipy.linalg.eigvalsh_tridiagonal(h.diag, h.offdiag, lapack_driver="sterf")


def _check_sweep(op, out: Path, reference: dict | None, outcome: Outcome) -> None:
    _, data = _artifacts(out, ("sweep.csv",))
    outcome.digests = {name: sha256(raw) for name, raw in data.items()}
    rows = [line.split(",", 2) for line in _lines(data["sweep.csv"], SWEEP_HEADER)]
    if len(rows) != op.count or any(len(r) != 3 for r in rows):
        raise CheckFailure(f"sweep.csv has {len(rows)} rows, expected {op.count}")
    expected = reference["fractions"] if reference else [None] * len(rows)
    for (lf, fraction, error), want in zip(rows, expected):
        if error:
            outcome.failed_points += 1
            problem = error
        elif not 0.0 <= float(fraction) <= 1.0 or (want is not None and float(fraction) != want):
            problem = f"fraction {fraction} is wrong"
        else:
            continue
        outcome.failed += 1
        outcome.errors.append(f"{op.key}: point lf={lf}: {problem}")


def _check_oracle(op, stdout: str, outcome: Outcome) -> None:
    match = ORACLE_LINE.match(stdout)
    instances = int(op.argv[op.argv.index("--instances") + 1])
    if match is None or int(match.group(1)) != instances:
        raise CheckFailure(f"oracle did not report that all {instances} instances agree")
    outcome.digests = {"stdout": sha256(stdout.encode())}


def reference_entry(op, out: Path) -> dict:
    """What the reference pins for one run or sweep, read from its artifacts."""
    names = RUN_ARTIFACTS if op.kind == "run" else ("sweep.csv",)
    _, data = _artifacts(out, names)
    entry: dict = {"checksums": {name: sha256(raw) for name, raw in data.items()}}
    if op.kind == "run":
        entry["summary"] = summary_structure(json.loads(data["summary.json"]))
        entry["eigenvalues"] = [float(line.split(",")[1])
                                for line in _lines(data["spectrum.csv"], "index,eigenvalue")]
    else:
        entry["fractions"] = [float(line.split(",", 2)[1])
                              for line in _lines(data["sweep.csv"], SWEEP_HEADER)]
    return entry
