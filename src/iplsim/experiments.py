"""Named lattice designs, the single-run pipeline, the focusing sweep, and manifests.

A run is: profile -> assemble -> diagonalize -> analyze -> write artifacts.
The manifest records everything needed to replay it byte-identically
(parameters, profile recipe, thresholds, seeds, artifact checksums) and
deliberately nothing environment-bound: no timestamps, no absolute paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import eigensolver
from ._version import __version__
from .analysis import (AnalysisThresholds, BandPartition, Measuring, SpectralReport, analyze,
                       delocalized_fraction, detect_bands, eigenstate_map)
from .eigensolver import DENSE_ORACLE_MAX_SITES, EigenSystem, SolverError, eigh_tridiagonal
from .hamiltonian import (CellParams, TridiagonalHamiltonian, assemble,
                          assemble_onsite)
from .measures import spacing_spectrum
from .output import (summary_document, write_json, write_pgm, write_state_csv,
                     write_spectrum_csv, write_sweep_csv, sha256_file)
from .profiles import (QUARTER_TURN, ProfileSpec, random_onsite_sequence, read_integer,
                       read_real, realize_profile)
from .rng import SplitMix64

TOOL = f"iplsim {__version__}"
EMIT_KINDS = ("csv", "pgm", "json")


def _normalize_emit(emit) -> tuple[str, ...]:
    """The requested artifact kinds in EMIT_KINDS order; refused unless a non-empty list
    of known kinds."""
    if not isinstance(emit, (list, tuple)):
        raise ValueError(f"emit must be a list of artifact kinds, got {emit!r}")
    unknown = [kind for kind in emit if kind not in EMIT_KINDS]
    if unknown:
        raise ValueError(f"emit holds unknown artifact kind(s) {unknown}; "
                         f"known: {', '.join(EMIT_KINDS)}")
    if not emit:
        raise ValueError(f"emit must request at least one of {', '.join(EMIT_KINDS)}")
    return tuple(kind for kind in EMIT_KINDS if kind in emit)


def parse_selection(selection: str) -> tuple[str, int]:
    """Map-selection mini-language: 'full', 'band:I' (I >= 0), 'lowest:K' (K >= 1).

    Returns the kind and its count (0 for 'full'). Whether band I exists is
    known only once the spectrum is, so `resolve_selection` checks that.
    """
    if not isinstance(selection, str):
        raise ValueError(f"map selection must be text, got {selection!r}")
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
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"label must be text, got {self.label!r}")
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


def focusing_grid(lf_min: float, lf_max: float, points: int) -> tuple[float, ...]:
    """`points` focusing values, log-spaced from lf_min to lf_max, both ends included;
    refused unless the ends read as finite numbers and points as an integer, with
    points >= 2 and 0 < lf_min < lf_max."""
    lf_min, lf_max = read_real("lf_min", lf_min), read_real("lf_max", lf_max)
    points = read_integer("points", points)
    if points < 2 or not 0 < lf_min < lf_max < math.inf:
        raise ValueError(f"a focusing grid needs points >= 2 and 0 < lf_min < lf_max < inf, "
                         f"got points={points}, lf_min={lf_min}, lf_max={lf_max}")
    grid = np.logspace(math.log10(lf_min), math.log10(lf_max), points)
    # log10 and back can miss an end by an ulp (0.3 comes back as 0.29999999999999993)
    grid[0], grid[-1] = lf_min, lf_max
    return tuple(float(x) for x in grid)


_SWEEP_GRID = focusing_grid(0.5, 100.0, 25)

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


def run_config(config: RunConfig, profile: bool = True
               ) -> tuple[TridiagonalHamiltonian, EigenSystem, SpectralReport]:
    """Compute without touching the filesystem: the eigensystem's values and bounds, and the
    report of the measures its walk took, which without `profile` are the edge weights only
    (`StateMeasures`). A caller that wants the vectors names a reader to `eigh_tridiagonal`."""
    return _compute(config, profile, pixels=False)[:3]


def _compute(config: RunConfig, profile: bool, pixels: bool):
    """(h, eig, report, map pixels or None) of one config, from one walk over its vectors,
    whose readers take the measures and, with `pixels`, the selection's map rows."""
    h = build_hamiltonian(config)
    th = config.thresholds
    measuring, raster = Measuring(th, profile), None

    def consumers(values):
        nonlocal raster
        if not pixels:
            return (measuring,)
        selection = resolve_selection(config.map_selection,
                                      detect_bands(spacing_spectrum(values), gamma=th.gamma))
        raster = np.empty((len(selection), values.size), dtype=np.uint8)

        def map_rows(lo, rows):  # the raster's rows descend from the selection's last state
            start, stop = max(lo, selection.start), min(lo + rows.shape[0], selection.stop)
            if start < stop:
                raster[selection.stop - stop:selection.stop - start] = eigenstate_map(
                    rows[start - lo:stop - lo])
        return measuring, map_rows

    eig = eigh_tridiagonal(h, consumers)
    # a cell lattice should split into two bands; the random on-site
    # comparison has no such structure, so skip the diagnostic there
    two_bands = config.profile.kind != "random_onsite"
    report = analyze(eig, measuring.measures(), th, expect_two_bands=two_bands)
    if raster is not None:
        raster.setflags(write=False)
    return h, eig, report, raster


def resolve_selection(selection: str, bands: BandPartition) -> range:
    """The state indices a map selection (see `parse_selection`) picks from a band partition."""
    kind, count = parse_selection(selection)
    size = bands.bands[-1].stop
    if kind == "full":
        return range(size)
    if kind == "lowest":
        return range(min(count, size))
    if count >= len(bands.bands):
        raise ValueError(f"band {count} out of range (found {len(bands.bands)} bands)")
    return bands.bands[count]


def _section(cls, key: str, data: Any) -> Any:
    """`cls(**data)` for one manifest section, refused by key name unless `data` holds
    each field of `cls` and no other key; only a field whose default is None may be absent."""
    if not isinstance(data, dict):
        raise ValueError(f"manifest {key} must be an object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.name not in data and f.default is not None]
    if unknown or missing:
        raise ValueError(f"manifest {key}: unknown key(s) {unknown}, missing key(s) {missing}")
    return cls(**data)


@dataclass(frozen=True)
class RunManifest:
    """Replayable record of one run, or of a sweep: a sweep exactly when it has lf_values."""

    tool: str
    params: dict[str, float]
    profile: dict[str, Any]
    thresholds: dict[str, Any]
    map_selection: str
    emit: tuple[str, ...]
    checksums: dict[str, str]
    label: str | None = None
    lf_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.checksums, dict)
                and all(isinstance(v, str) for v in self.checksums.values())):
            raise ValueError(f"manifest checksums must map artifact names to digests, "
                             f"got {self.checksums!r}")
        object.__setattr__(self, "emit", _normalize_emit(self.emit))
        if self.lf_values is not None:
            if self.emit != ("csv",):
                raise ValueError(f"a sweep manifest emits ['csv'], got {list(self.emit)}")
            object.__setattr__(self, "lf_values", _sweep_grid(self.lf_values, self.config()))

    @property
    def kind(self) -> str:
        return "run" if self.lf_values is None else "sweep"

    def to_dict(self) -> dict[str, Any]:
        doc = {"kind": self.kind, **asdict(self)}
        if self.lf_values is None:
            del doc["lf_values"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RunManifest":
        """The manifest a `to_dict` document records, refused at load if malformed."""
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError("manifest is missing required key 'kind'")
        kind = doc["kind"]
        if kind not in ("run", "sweep"):
            raise ValueError(f"unknown manifest kind {kind!r}; known: run, sweep")
        manifest = _section(cls, "top level", {k: v for k, v in doc.items() if k != "kind"})
        if manifest.kind != kind:
            raise ValueError("a sweep manifest needs its lf_values" if kind == "sweep"
                             else "a run manifest takes no lf_values")
        manifest.config()  # a bad setting is refused here, before any compute
        return manifest

    @classmethod
    def of(cls, config: RunConfig, emit: tuple[str, ...], checksums: dict[str, str],
           lf_values=None) -> "RunManifest":
        """The manifest of one computed config; the inverse of `config`."""
        return cls(tool=TOOL, label=config.label, params=asdict(config.params),
                   profile=config.profile.to_dict(), thresholds=asdict(config.thresholds),
                   map_selection=config.map_selection, emit=emit, checksums=checksums,
                   lf_values=lf_values)

    def config(self) -> RunConfig:
        return RunConfig(params=_section(CellParams, "params", self.params),
                         profile=_section(ProfileSpec, "profile", self.profile),
                         thresholds=_section(AnalysisThresholds, "thresholds", self.thresholds),
                         map_selection=self.map_selection,
                         label=self.label)


def execute(config: RunConfig, out_dir: str | Path,
            emit=("csv", "pgm", "json")) -> RunManifest:
    """Run the pipeline and write the requested artifacts plus manifest.json."""
    emit = _normalize_emit(emit)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # nothing is written until the solve's certificate has passed
    _, eig, report, raster = _compute(config, profile="csv" in emit, pixels="pgm" in emit)
    checksums: dict[str, str] = {}
    if "csv" in emit:
        checksums["spectrum.csv"] = sha256_file(write_spectrum_csv(eig.values, out / "spectrum.csv"))
        checksums["states.csv"] = sha256_file(write_state_csv(report, out / "states.csv"))
    if "pgm" in emit:
        checksums["map.pgm"] = sha256_file(write_pgm(raster, out / "map.pgm"))
    if "json" in emit:
        extras = {
            "label": config.label,
            "solver": {"residual_bound": eig.residual_bound, "ortho_bound": eig.ortho_bound},
        }
        checksums["summary.json"] = sha256_file(
            write_json(summary_document(report, extras), out / "summary.json"))

    manifest = RunManifest.of(config, emit, checksums)
    write_json(manifest.to_dict(), out / "manifest.json")
    return manifest


@dataclass(frozen=True)
class SweepPoint:
    lf: float
    fraction: float | None
    error: str = ""


def _sweep_grid(lf_values, base: RunConfig) -> tuple[float, ...]:
    """The focusing grid as floats, for the sweep and its manifest alike; refused
    unless it is a non-empty list of positive finite values and the base profile
    is linear."""
    if not isinstance(lf_values, (list, tuple)) or not lf_values:
        raise ValueError(f"lf_values must be a non-empty list, got {lf_values!r}")
    lf_values = tuple(read_real("lf", x) for x in lf_values)
    if min(lf_values) <= 0:
        raise ValueError(f"lf must be positive, got {min(lf_values)!r}")
    if base.profile.kind != "linear":
        raise ValueError("the focusing sweep is defined for linear profiles")
    return lf_values


def sweep_lf(lf_values, base: RunConfig) -> list[SweepPoint]:
    """Delocalized fraction vs focusing, one full pipeline run per grid value.

    Points run side by side on one `eigensolver.Crew`, up to one per core
    (`thread_count` of their summed sites x states), each thread taking the
    next point left; each point is stored at its index, so the rows keep the
    input order, and per-point failures become rows, not aborts. A point's
    solve inside the crew starts no thread of its own, so the working set is
    one point's window per point in flight: a fifth of a 1002-site point's
    vectors, and the edge weights only.
    """
    lf_values = _sweep_grid(lf_values, base)

    def point(lf: float) -> SweepPoint:
        try:
            _, _, report = run_config(configure(base, {"lf": lf}), profile=False)
            return SweepPoint(lf=lf, fraction=delocalized_fraction(report.labels))
        except Exception as exc:  # per-point isolation, sweep must go on
            return SweepPoint(lf=lf, fraction=None, error=f"{type(exc).__name__}: {exc}")

    points: list[SweepPoint | None] = [None] * len(lf_values)
    left = iter(enumerate(lf_values))  # each thread takes the next point left

    def run(_) -> None:
        for i, lf in left:
            points[i] = point(lf)

    sites = 2 * base.profile.cells
    threads = min(eigensolver.thread_count(len(lf_values) * sites * sites), len(lf_values))
    with eigensolver.Crew(threads) as crew:
        crew.map(run, range(crew.size))
    return points


def run_sweep(base: RunConfig, lf_values, out_dir: str | Path) -> RunManifest:
    lf_values = _sweep_grid(lf_values, base)  # a refused grid leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = sweep_lf(lf_values, base)
    path = write_sweep_csv([(p.lf, p.fraction, p.error) for p in points], out / "sweep.csv")
    manifest = RunManifest.of(base, ("csv",), {"sweep.csv": sha256_file(path)},
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
        if "center" not in grid and "phi_start" not in spec:
            raise ValueError("a new linear grid placed by lf needs a center")
        center = grid["center"] if "center" in grid else (spec["phi_start"] + spec["phi_end"]) / 2
        spec.update(ProfileSpec.linear(center, lf, cells).to_dict())
    if ends:
        spec.update(ends)
        spec.pop("lf", None)
    return ProfileSpec(**spec)


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
    extra = {}
    if kind == "revolutions":
        extra["revolutions"] = 1 + int(rng.next_float() * 3)
    elif kind == "random_phase":
        extra["seed"] = rng.next_u64() >> 1
    spec = ProfileSpec(kind, cells, phi_start=lo, phi_end=hi, **extra)
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
    instances = read_integer("instances", instances)
    max_sites = read_integer("max_sites", max_sites)
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    if not 4 <= max_sites <= DENSE_ORACLE_MAX_SITES:
        raise ValueError(f"max_sites must lie in [4, {DENSE_ORACLE_MAX_SITES}], "
                         f"the dense oracle's size range, got {max_sites}")
    rng = SplitMix64(read_integer("seed", seed))
    max_dev = max_res = max_ortho = 0.0
    for i in range(instances):
        h = random_instance(rng, max_sites)
        eig = eigh_tridiagonal(h)  # values and bounds only
        ora = eigensolver.dense_oracle(h)
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
    return RunManifest.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def replay(manifest_path: str | Path, out_dir: str | Path,
           verify: bool = True) -> RunManifest:
    """Re-run a recorded manifest; with verify, byte drift raises."""
    recorded = load_manifest(manifest_path)
    if recorded.kind == "sweep":
        fresh = run_sweep(recorded.config(), recorded.lf_values, out_dir)
    else:
        fresh = execute(recorded.config(), out_dir, emit=recorded.emit)
    if verify:
        drifted = [name for name, digest in recorded.checksums.items()
                   if fresh.checksums.get(name) != digest]
        if drifted:
            raise RuntimeError(f"replay drift in: {', '.join(sorted(drifted))}")
    return fresh
