"""Named lattice designs, the single-run pipeline, the focusing sweep, and manifests.

A run is: profile -> assemble -> diagonalize -> analyze -> write artifacts.
The manifest records everything needed to replay it byte-identically
(parameters, profile recipe, thresholds, seeds, artifact checksums) and
deliberately nothing environment-bound: no timestamps, no absolute paths.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
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
from .profiles import (QUARTER_TURN, ProfileSpec, random_onsite_sequence, read_integer,
                       realize_profile)
from .rng import SplitMix64

TOOL = f"iplsim {__version__}"
EMIT_KINDS = ("csv", "pgm", "json")


def parse_selection(selection: str) -> tuple[str, int]:
    """Map-selection mini-language: 'full', 'band:I' (I >= 0), 'lowest:K' (K >= 1).

    Returns the kind and its count (0 for 'full'). Whether band I exists is
    known only once the spectrum is, so `resolve_selection` checks that.
    """
    if selection == "full":
        return "full", 0
    kind, _, count = selection.partition(":")
    if kind not in ("band", "lowest"):
        raise ValueError(f"unknown map selection {selection!r}")
    try:
        number = int(count)
    except ValueError:
        raise ValueError(f"unknown map selection {selection!r}") from None
    if kind == "lowest" and number < 1:
        raise ValueError("lowest:K needs K >= 1")
    if kind == "band" and number < 0:
        raise ValueError("band:I needs I >= 0")
    return kind, number


@dataclass(frozen=True)
class RunConfig:
    """Complete recipe for one lattice computation."""

    params: CellParams
    profile: ProfileSpec
    thresholds: AnalysisThresholds = field(default_factory=AnalysisThresholds)
    map_selection: str = "band:0"
    label: str | None = None

    def __post_init__(self):
        parse_selection(self.map_selection)
        if self.thresholds.n_b > self.profile.cells:
            raise ValueError(f"edge window n_b={self.thresholds.n_b} exceeds the "
                             f"{self.profile.cells} sites per lattice half")


# the default lattice: run and sweep start from it, and every preset shares its d1, d2
DEFAULT_CONFIG = RunConfig(params=CellParams(1.0, 2.0, 0.2),
                           profile=ProfileSpec.linear(QUARTER_TURN, 1.0, 501))


@dataclass(frozen=True)
class Preset:
    """A named RunConfig whose parameters are pinned by the bundled reproductions."""

    name: str
    config: RunConfig
    note: str
    sweep_lf_values: tuple[float, ...] | None = None


def _preset(name: str, note: str, *, eps: float, profile: ProfileSpec,
            sweep: tuple[float, ...] | None = None, **config) -> Preset:
    config = replace(DEFAULT_CONFIG, params=replace(DEFAULT_CONFIG.params, eps=eps),
                     profile=profile, label=name, **config)
    return Preset(name=name, config=config, note=note, sweep_lf_values=sweep)


_SWEEP_GRID = tuple(float(x) for x in np.logspace(math.log10(0.5), 2.0, 25))

PRESETS: dict[str, Preset] = {p.name: p for p in (
    _preset("fig1", "symmetric linear grid, unit focusing, 1002 sites",
            eps=0.2, profile=DEFAULT_CONFIG.profile),
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
        energies = random_onsite_sequence(config.params.d1, config.params.d2,
                                          2 * config.profile.cells, config.profile.seed)
        return assemble_onsite(energies, config.params.eps)
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
    """The state indices a map selection (see `parse_selection`) picks from a report."""
    kind, count = parse_selection(selection)
    if kind == "full":
        return range(report.size)
    if kind == "lowest":
        return range(min(count, report.size))
    bands = report.bands.bands
    if count >= len(bands):
        raise ValueError(f"band {count} out of range (found {len(bands)} bands)")
    return bands[count]


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
        try:
            lf_values = doc.get("lf_values")
            if doc["kind"] not in ("run", "sweep"):
                raise ValueError(f"unknown manifest kind {doc['kind']!r}; known: run, sweep")
            if doc["kind"] == "sweep" and lf_values is None:
                raise ValueError("a sweep manifest needs its lf_values")
            if doc["kind"] == "run" and lf_values is not None:
                raise ValueError("a run manifest takes no lf_values")
            return cls(kind=doc["kind"], tool=doc["tool"], label=doc.get("label"),
                       params=doc["params"], profile=doc["profile"],
                       thresholds=doc["thresholds"], map_selection=doc["map_selection"],
                       emit=tuple(doc["emit"]), checksums=doc["checksums"],
                       lf_values=tuple(lf_values) if lf_values is not None else None)
        except KeyError as exc:
            raise ValueError(f"manifest is missing required key {exc}") from None

    @classmethod
    def of(cls, config: RunConfig, kind: str, emit: tuple[str, ...],
           checksums: dict[str, str], lf_values=None) -> "RunManifest":
        """The manifest of one computed config; the inverse of `config`."""
        if lf_values is not None:
            lf_values = tuple(float(x) for x in lf_values)
        return cls(kind=kind, tool=TOOL, label=config.label,
                   params=asdict(config.params),
                   profile=config.profile.to_dict(),
                   thresholds=asdict(config.thresholds),
                   map_selection=config.map_selection,
                   emit=emit, checksums=checksums, lf_values=lf_values)

    def config(self) -> RunConfig:
        return RunConfig(params=CellParams(**self.params),
                         profile=ProfileSpec.from_dict(self.profile),
                         thresholds=AnalysisThresholds(**self.thresholds),
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
        raster = eigenstate_map(eig, resolve_selection(config.map_selection, report))
        checksums["map.pgm"] = sha256_file(write_pgm(raster, out / "map.pgm"))
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


def _sweep_grid(lf_values, base: RunConfig) -> list[float]:
    """The focusing grid as floats; refused unless every value is positive and
    finite and the base profile is linear."""
    lf_values = [float(x) for x in lf_values]
    if not all(0 < x < math.inf for x in lf_values):
        raise ValueError("all lf values must be positive and finite")
    if base.profile.kind != "linear":
        raise ValueError("the focusing sweep is defined for linear profiles")
    return lf_values


def sweep_lf(lf_values, base: RunConfig) -> list[SweepPoint]:
    """Delocalized fraction vs focusing, one full pipeline run per grid value.

    Points run one after another, in the input order, and per-point failures
    become rows, not aborts. The parallelism lives inside each point's solve,
    which spreads its inverse iteration over the cores (see
    `eigh_tridiagonal`); a pool of points on top of that would only make the
    two compete for the same cores.
    """
    lf_values = _sweep_grid(lf_values, base)

    def point(lf: float) -> SweepPoint:
        try:
            _, _, report = run_config(configure(base, {"lf": lf}))
            return SweepPoint(lf=lf, fraction=delocalized_fraction(report.labels))
        except Exception as exc:  # per-point isolation, sweep must go on
            return SweepPoint(lf=lf, fraction=None, error=f"{type(exc).__name__}: {exc}")

    return [point(lf) for lf in lf_values]


def run_sweep(base: RunConfig, lf_values, out_dir: str | Path) -> RunManifest:
    lf_values = _sweep_grid(lf_values, base)  # a refused grid leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = sweep_lf(lf_values, base)
    path = write_sweep_csv([(p.lf, p.fraction, p.error) for p in points], out / "sweep.csv")
    manifest = RunManifest.of(base, "sweep", ("csv",), {"sweep.csv": sha256_file(path)},
                              lf_values=lf_values)
    write_json(manifest.to_dict(), out / "manifest.json")
    return manifest


SETTING_KEYS = ("d1", "d2", "eps", "sites", "cells", "profile", "phi_start", "phi_end",
                "center", "lf", "revolutions", "seed", "tau", "gamma", "delta_rel", "nb",
                "amplitude_floor", "map_selection")
# a preset keeps its design: its kind, and a grid placed by ends or by lf, never by center
PRESET_KEYS = tuple(key for key in SETTING_KEYS if key not in ("profile", "center"))
_THRESHOLD_FIELDS = {"tau": "tau", "gamma": "gamma", "delta_rel": "delta_rel",
                     "nb": "n_b", "amplitude_floor": "amplitude_floor"}


def configure(base: RunConfig, settings: dict[str, Any], keys=SETTING_KEYS) -> RunConfig:
    """Apply flat settings (keys in `keys`, at most SETTING_KEYS) to a config.

    The one route from user input to a RunConfig: `run` and `sweep` flags and
    preset `--set` overrides all come through here, and the result is checked
    by the config's own rules. A value is a number or its text ("8", "1e-4"),
    read by the config types, which refuse a fraction for an integer and a
    non-finite real. A grid is placed either by its ends (phi_start/phi_end,
    one at a time, dropping lf) or by center and lf, which default to the
    current midpoint and lf. A new profile kind starts from nothing but the cell
    count.
    """
    unknown = set(settings) - set(keys)
    if unknown:
        raise ValueError(f"unknown override(s): {sorted(unknown)}")
    if not settings:
        return base
    params = asdict(base.params)
    params.update({key: settings[key] for key in ("d1", "d2", "eps") if key in settings})
    thresholds = asdict(base.thresholds)
    thresholds.update({name: settings[k] for k, name in _THRESHOLD_FIELDS.items() if k in settings})
    return replace(base, params=CellParams(**params),
                   profile=_configure_profile(base.profile, settings),
                   thresholds=AnalysisThresholds(**thresholds),
                   map_selection=settings.get("map_selection", base.map_selection))


def _configure_profile(base: ProfileSpec, settings: dict[str, Any]) -> ProfileSpec:
    if "sites" in settings and "cells" in settings:
        raise ValueError("sites and cells both set the lattice size; give one")
    cells = settings.get("cells", base.cells)
    if "sites" in settings:
        sites = read_integer("sites", settings["sites"])
        if sites % 2 or sites < 4:
            raise ValueError("sites must be even and at least 4")
        cells = sites // 2
    kind = settings.get("profile", base.kind)
    spec = base.to_dict() if kind == base.kind else {"kind": kind}
    if kind == "revolutions":
        spec.setdefault("revolutions", 1)
    spec["cells"] = cells
    spec.update({key: settings[key] for key in ("revolutions", "seed") if key in settings})
    ends = {key: settings[key] for key in ("phi_start", "phi_end") if key in settings}
    grid = {key: settings[key] for key in ("center", "lf") if key in settings}
    if grid:
        if kind != "linear":
            raise ValueError("lf/center apply to linear profiles only")
        if ends:
            raise ValueError("lf/center conflicts with phi_start/phi_end; place the grid one way")
        lf = grid.get("lf", spec.get("lf"))
        if lf is None:
            raise ValueError("center needs lf: this grid is placed by its ends")
        center = grid["center"] if "center" in grid else (spec["phi_start"] + spec["phi_end"]) / 2
        spec.update(ProfileSpec.linear(center, lf, cells).to_dict())
    if ends:
        spec.update(ends)
        spec.pop("lf", None)
    return ProfileSpec.from_dict(spec)


def preset_config(name: str, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Look up a preset and apply overrides (keys in PRESET_KEYS) through `configure`."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known: {known}")
    return configure(PRESETS[name].config, overrides or {}, keys=PRESET_KEYS)


_RANDOM_KINDS = ("linear", "revolutions", "random_phase")


def random_instance(rng: SplitMix64, max_sites: int = 64) -> TridiagonalHamiltonian:
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
    kind = _RANDOM_KINDS[int(rng.next_float() * len(_RANDOM_KINDS)) % len(_RANDOM_KINDS)]
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
    # at call time: a module-level import would bind dense_oracle before perfbench's tracer wraps it
    from .eigensolver import DENSE_ORACLE_MAX_SITES, SolverError, dense_oracle

    if instances < 1:
        raise ValueError("need at least one instance")
    if not 4 <= max_sites <= DENSE_ORACLE_MAX_SITES:
        raise ValueError(f"max_sites must lie in [4, {DENSE_ORACLE_MAX_SITES}], "
                         f"the dense oracle's size range")
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
