"""Named lattice designs, the single-run pipeline, the focusing sweep, and manifests.

A run is: profile -> assemble -> diagonalize -> analyze -> write artifacts.
The manifest records everything needed to replay it byte-identically
(parameters, profile recipe, thresholds, seeds, artifact checksums) and
deliberately nothing environment-bound: no timestamps, no absolute paths.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from ._version import __version__
from .analysis import (AnalysisThresholds, SpectralReport, analyze,
                       delocalized_fraction, eigenstate_map)
from .eigensolver import EigenSystem, eigh_tridiagonal
from .hamiltonian import (CellParams, TridiagonalHamiltonian, assemble,
                          assemble_onsite)
from .output import (summary_document, write_json, write_pgm, write_state_csv,
                     write_spectrum_csv, write_sweep_csv, sha256_file)
from .profiles import (QUARTER_TURN, ProfileSpec, random_onsite_sequence,
                       realize_profile)
from .rng import SplitMix64

TOOL = f"iplsim {__version__}"
EMIT_KINDS = ("csv", "pgm", "json")


@dataclass(frozen=True)
class RunConfig:
    """Complete recipe for one lattice computation."""

    params: CellParams
    profile: ProfileSpec
    thresholds: AnalysisThresholds = field(default_factory=AnalysisThresholds)
    map_selection: str = "band:0"
    label: str | None = None


@dataclass(frozen=True)
class Preset:
    """A named RunConfig whose parameters are pinned by the bundled reproductions."""

    name: str
    config: RunConfig
    note: str
    sweep_lf_values: tuple[float, ...] | None = None


def _preset(name: str, note: str, *, d1: float = 1.0, d2: float = 2.0, eps: float,
            profile: ProfileSpec, map_selection: str = "band:0",
            sweep: tuple[float, ...] | None = None) -> Preset:
    config = RunConfig(params=CellParams(d1, d2, eps), profile=profile,
                       map_selection=map_selection, label=name)
    return Preset(name=name, config=config, note=note, sweep_lf_values=sweep)


_SWEEP_GRID = tuple(float(x) for x in np.logspace(math.log10(0.5), 2.0, 25))

PRESETS: dict[str, Preset] = {p.name: p for p in (
    _preset("fig1", "symmetric linear grid, unit focusing, 1002 sites",
            eps=0.2, profile=ProfileSpec.linear(QUARTER_TURN, 1.0, 501)),
    _preset("fig2_3", "symmetric linear grid at map-friendly size, 402 sites",
            eps=0.2, profile=ProfileSpec.linear(QUARTER_TURN, 1.0, 201)),
    _preset("fig4", "half focusing, strong coupling: almost fully localized",
            eps=0.3, profile=ProfileSpec.linear(QUARTER_TURN, 0.5, 151)),
    _preset("fig4_inset_sweep", "focusing sweep base lattice, 1002 sites",
            eps=0.2, profile=ProfileSpec.linear(QUARTER_TURN, 0.5, 501), sweep=_SWEEP_GRID),
    _preset("fig5", "random on-site comparison lattice (seeded coin flips)",
            eps=0.2, profile=ProfileSpec("random_onsite", 151, seed=11),
            map_selection="full"),
    _preset("fig6", "random phase comparison lattice on [pi/8, 3pi/8]",
            eps=0.2, profile=ProfileSpec("random_phase", 151, seed=7,
                                         phi_start=math.pi / 8, phi_end=3 * math.pi / 8)),
    _preset("fig7_8", "asymmetric linear grid [pi/8, pi/4]: one-sided edge states",
            eps=0.3, profile=ProfileSpec("linear", 151, phi_start=math.pi / 8,
                                         phi_end=math.pi / 4)),
    _preset("fig9_10", "single phase revolution on [pi/8, 3pi/8], 402 sites",
            eps=0.3, profile=ProfileSpec("revolutions", 201, phi_start=math.pi / 8,
                                         phi_end=3 * math.pi / 8, revolutions=1)),
    _preset("fig10", "single phase revolution at 602 sites, lowest-state maps",
            eps=0.3, profile=ProfileSpec("revolutions", 301, phi_start=math.pi / 8,
                                         phi_end=3 * math.pi / 8, revolutions=1),
            map_selection="lowest:12"),
    _preset("fig11_13", "three phase revolutions on [pi/8, 3pi/8], 362 sites",
            eps=0.3, profile=ProfileSpec("revolutions", 181, phi_start=math.pi / 8,
                                         phi_end=3 * math.pi / 8, revolutions=3)),
    _preset("fig13", "three phase revolutions at 1802 sites",
            eps=0.3, profile=ProfileSpec("revolutions", 901, phi_start=math.pi / 8,
                                         phi_end=3 * math.pi / 8, revolutions=3)),
)}


def build_hamiltonian(config: RunConfig) -> TridiagonalHamiltonian:
    if config.profile.kind == "random_onsite":
        seq = random_onsite_sequence(config.params.d1, config.params.d2,
                                     2 * config.profile.cells, config.profile.seed)
        return assemble_onsite(seq, config.params.eps, spec=config.profile)
    return assemble(realize_profile(config.profile), config.params)


def run_config(config: RunConfig) -> tuple[TridiagonalHamiltonian, EigenSystem, SpectralReport]:
    """Compute without touching the filesystem."""
    h = build_hamiltonian(config)
    eig = eigh_tridiagonal(h)
    # a cell lattice should split into two bands; the random on-site
    # comparison has no such structure, so skip the diagnostic there
    two_bands = config.profile.kind != "random_onsite"
    report = analyze(eig, config.thresholds, expect_two_bands=two_bands)
    return h, eig, report


def resolve_selection(selection: str, report: SpectralReport) -> range:
    """Map-selection mini-language: 'full', 'band:I', 'lowest:K'."""
    if selection == "full":
        return range(report.size)
    if selection.startswith("band:"):
        index = int(selection[5:])
        bands = report.bands.bands
        if not 0 <= index < len(bands):
            raise ValueError(f"band {index} out of range (found {len(bands)} bands)")
        return bands[index]
    if selection.startswith("lowest:"):
        count = int(selection[7:])
        if count < 1:
            raise ValueError("lowest:K needs K >= 1")
        return range(min(count, report.size))
    raise ValueError(f"unknown map selection {selection!r}")


@dataclass(frozen=True)
class RunManifest:
    """Replayable record of one run or sweep."""

    kind: str
    tool: str
    label: str | None
    params: dict[str, float]
    profile: dict[str, Any]
    thresholds: dict[str, Any]
    map_selection: str
    emit: tuple[str, ...]
    checksums: dict[str, str]
    lf_values: tuple[float, ...] | None = None

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "kind": self.kind,
            "tool": self.tool,
            "label": self.label,
            "params": self.params,
            "profile": self.profile,
            "thresholds": self.thresholds,
            "map_selection": self.map_selection,
            "emit": list(self.emit),
            "checksums": self.checksums,
        }
        if self.lf_values is not None:
            doc["lf_values"] = list(self.lf_values)
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RunManifest":
        lf_values = doc.get("lf_values")
        return cls(kind=doc["kind"], tool=doc["tool"], label=doc.get("label"),
                   params=doc["params"], profile=doc["profile"],
                   thresholds=doc["thresholds"], map_selection=doc["map_selection"],
                   emit=tuple(doc["emit"]), checksums=doc["checksums"],
                   lf_values=tuple(lf_values) if lf_values is not None else None)

    @classmethod
    def of(cls, config: RunConfig, kind: str, emit: tuple[str, ...],
           checksums: dict[str, str], lf_values=None) -> "RunManifest":
        """The manifest of one computed config; the inverse of `config`."""
        if lf_values is not None:
            lf_values = tuple(float(x) for x in lf_values)
        return cls(kind=kind, tool=TOOL, label=config.label,
                   params=_params_dict(config.params),
                   profile=config.profile.to_dict(),
                   thresholds=config.thresholds.to_dict(),
                   map_selection=config.map_selection,
                   emit=emit, checksums=checksums, lf_values=lf_values)

    def config(self) -> RunConfig:
        return RunConfig(params=CellParams(**self.params),
                         profile=ProfileSpec.from_dict(self.profile),
                         thresholds=AnalysisThresholds.from_dict(self.thresholds),
                         map_selection=self.map_selection,
                         label=self.label)


def _normalize_emit(emit) -> tuple[str, ...]:
    chosen = tuple(kind for kind in EMIT_KINDS if kind in set(emit))
    bad = set(emit) - set(EMIT_KINDS)
    if bad:
        raise ValueError(f"unknown emit kind(s): {sorted(bad)}")
    if not chosen:
        raise ValueError("emit must request at least one of csv, pgm, json")
    return chosen


def _params_dict(params: CellParams) -> dict[str, float]:
    return {"d1": params.d1, "d2": params.d2, "eps": params.eps}


def execute(config: RunConfig, out_dir: str | Path,
            emit=("csv", "pgm", "json")) -> RunManifest:
    """Run the pipeline and write the requested artifacts plus manifest.json."""
    emit = _normalize_emit(emit)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _, eig, report = run_config(config)
    checksums: dict[str, str] = {}
    if "csv" in emit:
        checksums["spectrum.csv"] = sha256_file(write_spectrum_csv(eig.values, out / "spectrum.csv"))
        checksums["states.csv"] = sha256_file(write_state_csv(report, out / "states.csv"))
    if "pgm" in emit:
        emap = eigenstate_map(eig, resolve_selection(config.map_selection, report))
        checksums["map.pgm"] = sha256_file(write_pgm(emap, out / "map.pgm"))
    if "json" in emit:
        extras = {
            "label": config.label,
            "solver": {"residual_bound": eig.residual_bound, "ortho_bound": eig.ortho_bound},
        }
        checksums["summary.json"] = sha256_file(
            write_json(summary_document(report, extras), out / "summary.json"))

    manifest = RunManifest.of(config, "run", emit, checksums)
    write_json(manifest.to_dict(), out / "manifest.json")
    return manifest


@dataclass(frozen=True)
class SweepPoint:
    lf: float
    fraction: float | None
    error: str = ""


def sweep_lf(lf_values, base: RunConfig) -> list[SweepPoint]:
    """Delocalized fraction vs focusing, one full pipeline run per grid value.

    Points run in parallel, one thread per core, but the output order always
    follows the input order, and per-point failures become rows, not aborts.
    """
    lf_values = [float(x) for x in lf_values]
    if any(x <= 0 for x in lf_values):
        raise ValueError("all lf values must be positive")
    if base.profile.kind != "linear":
        raise ValueError("the focusing sweep is defined for linear profiles")
    center = (base.profile.phi_start + base.profile.phi_end) / 2

    def point(lf: float) -> SweepPoint:
        try:
            profile = ProfileSpec.linear(center, lf, base.profile.cells)
            _, _, report = run_config(replace(base, profile=profile))
            return SweepPoint(lf=lf, fraction=delocalized_fraction(report.labels))
        except Exception as exc:  # per-point isolation, sweep must go on
            return SweepPoint(lf=lf, fraction=None, error=f"{type(exc).__name__}: {exc}")

    workers = min(os.cpu_count() or 1, len(lf_values)) or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, lf_values))


def run_sweep(base: RunConfig, lf_values, out_dir: str | Path) -> RunManifest:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = sweep_lf(lf_values, base)
    path = write_sweep_csv([(p.lf, p.fraction, p.error) for p in points], out / "sweep.csv")
    manifest = RunManifest.of(base, "sweep", ("csv",), {"sweep.csv": sha256_file(path)},
                              lf_values=lf_values)
    write_json(manifest.to_dict(), out / "manifest.json")
    return manifest


_PARAM_KEYS = ("d1", "d2", "eps")
_PROFILE_KEYS = ("cells", "sites", "phi_start", "phi_end", "lf", "revolutions", "seed")
_THRESHOLD_KEYS = {"tau": "tau", "gamma": "gamma", "delta_rel": "delta_rel",
                   "nb": "n_b", "amplitude_floor": "amplitude_floor"}


def preset_config(name: str, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Look up a preset and apply shallow parameter overrides."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known: {known}")
    config = PRESETS[name].config
    if not overrides:
        return config

    unknown = set(overrides) - set(_PARAM_KEYS) - set(_PROFILE_KEYS) \
        - set(_THRESHOLD_KEYS) - {"map_selection"}
    if unknown:
        raise ValueError(f"unknown override(s): {sorted(unknown)}")

    params = _params_dict(config.params)
    for key in _PARAM_KEYS:
        if key in overrides:
            params[key] = float(overrides[key])

    profile = config.profile.to_dict()
    if "sites" in overrides:
        sites = int(overrides["sites"])
        if sites % 2 or sites < 4:
            raise ValueError("sites must be even and at least 4")
        profile["cells"] = sites // 2
    if "cells" in overrides:
        profile["cells"] = int(overrides["cells"])
    if "seed" in overrides:
        profile["seed"] = int(overrides["seed"])
    if "revolutions" in overrides:
        profile["revolutions"] = int(overrides["revolutions"])
    if "lf" in overrides:
        if profile["kind"] != "linear":
            raise ValueError("lf override applies to linear profiles only")
        center = (profile["phi_start"] + profile["phi_end"]) / 2
        profile.update(ProfileSpec.linear(center, float(overrides["lf"]),
                                          profile["cells"]).to_dict())
    for key in ("phi_start", "phi_end"):
        if key in overrides:
            profile[key] = float(overrides[key])
            profile.pop("lf", None)

    thresholds = config.thresholds.to_dict()
    for src, dst in _THRESHOLD_KEYS.items():
        if src in overrides:
            thresholds[dst] = type(thresholds[dst])(overrides[src])

    return RunConfig(params=CellParams(**params),
                     profile=ProfileSpec.from_dict(profile),
                     thresholds=AnalysisThresholds.from_dict(thresholds),
                     map_selection=overrides.get("map_selection", config.map_selection),
                     label=config.label)


def random_instance(rng: SplitMix64, max_sites: int = 64,
                    kinds=("linear", "revolutions", "random_phase")) -> TridiagonalHamiltonian:
    """Draw a random lattice for cross-checks.

    Phases stay inside (0, pi/2) and eps >= 0.05, so every off-diagonal entry
    is nonzero and the operator is unreduced.
    """
    cells = 2 + int(rng.next_float() * (max_sites // 2 - 1))
    d1 = 0.5 + 2.0 * rng.next_float()
    d2 = d1 + 0.25 + 2.0 * rng.next_float()
    eps = 0.05 + 0.45 * rng.next_float()
    params = CellParams(d1, d2, eps)

    margin = 0.05
    lo = margin + rng.next_float() * (math.pi / 2 - 2 * margin)
    hi = lo + rng.next_float() * (math.pi / 2 - margin - lo)
    hi = max(hi, lo + 1e-3)
    kind = kinds[int(rng.next_float() * len(kinds)) % len(kinds)]
    if kind == "linear":
        spec = ProfileSpec("linear", cells, phi_start=lo, phi_end=hi)
    elif kind == "revolutions":
        revs = 1 + int(rng.next_float() * 3)
        spec = ProfileSpec("revolutions", cells, phi_start=lo, phi_end=hi,
                           revolutions=revs)
    else:
        seed = rng.next_u64() >> 1
        spec = ProfileSpec("random_phase", cells, phi_start=lo, phi_end=hi, seed=seed)
    return assemble(realize_profile(spec), params)


@dataclass(frozen=True)
class OracleCheckResult:
    instances: int
    max_eigenvalue_dev: float
    max_residual: float
    max_ortho: float


def oracle_check(instances: int = 50, max_sites: int = 64,
                 seed: int = 0xA5EED) -> OracleCheckResult:
    """Cross-validate the production solver against the dense rotation solver.

    Independent routes: LAPACK on the (diag, offdiag) pair versus the
    hand-rolled Jacobi sweep on the dense expansion. Disagreement beyond
    1e-10, or a certification bound above 1e-10, raises SolverError.
    """
    from .eigensolver import SolverError, dense_oracle

    if instances < 1:
        raise ValueError("need at least one instance")
    rng = SplitMix64(seed)
    max_dev = max_res = max_ortho = 0.0
    for i in range(instances):
        h = random_instance(rng, max_sites)
        eig = eigh_tridiagonal(h)
        ora = dense_oracle(h)
        dev = float(np.max(np.abs(eig.values - ora.values)))
        max_dev = max(max_dev, dev)
        max_res = max(max_res, eig.residual_bound, ora.residual_bound)
        max_ortho = max(max_ortho, eig.ortho_bound, ora.ortho_bound)
        if dev > 1e-10:
            raise SolverError(
                f"instance {i} ({h.sites} sites): eigenvalue routes differ by {dev:.3e}")
    return OracleCheckResult(instances=instances, max_eigenvalue_dev=max_dev,
                             max_residual=max_res, max_ortho=max_ortho)


def load_manifest(path: str | Path) -> RunManifest:
    import json

    with open(path, encoding="utf-8") as fh:
        return RunManifest.from_dict(json.load(fh))


def replay(manifest_path: str | Path, out_dir: str | Path,
           verify: bool = True) -> RunManifest:
    """Re-run a recorded manifest; with verify, byte drift raises."""
    recorded = load_manifest(manifest_path)
    config = recorded.config()
    if recorded.kind == "sweep":
        fresh = run_sweep(config, recorded.lf_values, out_dir)
    else:
        fresh = execute(config, out_dir, emit=recorded.emit)
    if verify:
        drifted = [name for name, digest in recorded.checksums.items()
                   if fresh.checksums.get(name) != digest]
        if drifted:
            raise RuntimeError(f"replay drift in: {', '.join(sorted(drifted))}")
    return fresh
