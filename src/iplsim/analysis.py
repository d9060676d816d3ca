"""Spectrum-level structure.

Band detection from spacing outliers, A/B/C subdomain classification from
edge weights, near-degeneracy multiplet grouping, and the uint8 pixels of the
grey-scale eigenstate figures.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .eigensolver import EigenSystem
from .measures import SpacingSpectrum, StateMeasures, spacing_spectrum, state_measures
from .profiles import read_fields, read_integer, read_real


@dataclass(frozen=True)
class AnalysisThresholds:
    """Tunable knobs of the spectrum analysis; defaults cover all bundled presets."""

    n_b: int = 2
    tau: float = 3e-5
    gamma: float = 20.0
    delta_rel: float = 0.05
    amplitude_floor: float = 1e-8

    def __post_init__(self):
        # read and refused here, so a bad value never costs a solve on any route
        read_fields(self, read_integer, ("n_b",))
        read_fields(self, read_real, ("tau", "gamma", "delta_rel", "amplitude_floor"))
        if self.n_b < 1:
            raise ValueError("n_b must be at least 1")
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.delta_rel <= 0:
            raise ValueError("delta_rel must be positive")
        if self.amplitude_floor < 0:
            raise ValueError("amplitude_floor must not be negative")


@dataclass(frozen=True)
class BandPartition:
    """Disjoint index ranges over the sorted spectrum, split at outlier spacings.

    Each band but the last ends at a gap: the spacing after its last state.
    """

    bands: tuple[range, ...]
    low_confidence: bool = False


@dataclass(frozen=True)
class SubdomainLabels:
    """Per-state A/B/C labels and localized flags, banded.

    Within each band the pattern is A...AB...BC...C: A and C are the maximal
    localized prefix/suffix, B spans first to last delocalized state. Localized
    states strictly inside B are diagnostics, not relabeled.
    """

    labels: np.ndarray
    localized: np.ndarray
    interior_localized: int = 0

    def __post_init__(self):
        for name in ("labels", "localized"):
            arr = getattr(self, name)
            arr.setflags(write=False)


@dataclass(frozen=True)
class Multiplet:
    """A maximal run of consecutive states joined by near-degenerate spacings."""

    band: int
    start: int
    size: int

    @property
    def members(self) -> range:
        return range(self.start, self.start + self.size)


def detect_bands(spacings: SpacingSpectrum, gamma: float = 20.0) -> BandPartition:
    """Split the sorted spectrum at every spacing above gamma times the median spacing.

    The spacings and their rounding floor come from `spacing_spectrum`. A
    spacing at or below that floor never splits, so a spectrum of exact levels
    (a uniform chain: 0.8, 1.0, 1.2) splits at its level gaps only, however
    small the median. If nothing qualifies, fall back to the single largest
    spacing, flagged low confidence; a strictly uniform ladder stays one band.
    """
    spac, floor = spacings.spacings, spacings.floor
    if spac.size < 3:
        raise ValueError("band detection needs at least 4 states")
    median = float(np.median(spac))
    boundaries = np.nonzero(spac > max(gamma * median, floor))[0]
    low_confidence = False
    if boundaries.size == 0:
        low_confidence = True
        spread = float(spac.max() - spac.min())
        if spac.max() <= floor or spread <= 1e-9 * max(float(spac.max()), 1e-300):
            boundaries = np.array([], dtype=int)
        else:
            boundaries = np.array([int(np.argmax(spac))])
    edges = [0, *(int(b) + 1 for b in boundaries), spac.size + 1]
    bands = tuple(range(a, b) for a, b in zip(edges[:-1], edges[1:]))
    return BandPartition(bands=bands, low_confidence=low_confidence)


def classify_states(measures: StateMeasures, bands: BandPartition,
                    tau: float = 3e-5) -> SubdomainLabels:
    """Label each state A/B/C within its band from its edge weights.

    A state is localized when it fails to reach at least one lattice edge,
    i.e. min(w_left, w_right) < tau.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    n = measures.w_left.size
    localized = np.minimum(measures.w_left, measures.w_right) < tau

    labels = np.full(n, "A", dtype="<U1")
    interior = 0
    for band in bands.bands:
        deloc = [k for k in band if not localized[k]]
        if not deloc:
            continue
        first, last = deloc[0], deloc[-1]
        labels[first:last + 1] = "B"
        labels[last + 1:band.stop] = "C"
        interior += int(np.sum(localized[first:last + 1]))
    return SubdomainLabels(labels=labels, localized=localized, interior_localized=interior)


def delocalized_fraction(labels: SubdomainLabels) -> float:
    """Share of states extending to both lattice edges."""
    return float(np.mean(~labels.localized))


def detect_multiplets(spacings: SpacingSpectrum, bands: BandPartition,
                      delta_rel: float = 0.05) -> tuple[Multiplet, ...]:
    """Group consecutive states whose spacings fall below delta_rel of the band median.

    Spacings below the spectrum's rounding floor always join, so exactly
    degenerate levels group even when the band median is itself zero. The
    groups tile the spectrum in ascending order.
    """
    if delta_rel <= 0:
        raise ValueError("delta_rel must be positive")
    spac = spacings.spacings
    groups: list[Multiplet] = []
    for band_index, band in enumerate(bands.bands):
        band_spac = spac[band.start:band.stop - 1]
        median = float(np.median(band_spac)) if band_spac.size else 0.0
        threshold = max(delta_rel * median, spacings.floor)
        # a group ends at every spacing that does not join (NaN included) and at the band's end
        ends = [*(band.start + np.flatnonzero(~(band_spac < threshold))).tolist(), band.stop - 1]
        start = band.start
        for end in ends:
            groups.append(Multiplet(band=band_index, start=start, size=end - start + 1))
            start = end + 1
    return tuple(groups)


def eigenstate_map(rows: np.ndarray) -> np.ndarray:
    """Read-only uint8 pixels of |psi| for (states x sites) rows of eigenvectors.

    Each row is one state renormalized to max 1, then pixel = round(255 *
    value). The pixel rows descend in state index (the highest on top, as
    `write_pgm` writes them), each quantized on its own, so a walk's runs give
    the same bytes however they are cut.
    """
    scaled = np.abs(rows[::-1])  # the one float buffer
    scaled /= scaled.max(axis=1, keepdims=True)
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled *= 255.0
    pixels = np.rint(scaled, out=scaled).astype(np.uint8)
    pixels.setflags(write=False)
    return pixels


class Measuring:
    """A reader of a solve's walk (`eigh_tridiagonal`): `state_measures` of each run.

    `measures()` joins the blocks once the solve has returned. Without
    `profile` the PROFILE_MEASURES stay None.
    """

    def __init__(self, thresholds: AnalysisThresholds, profile: bool = True):
        self.thresholds, self.profile, self.blocks = thresholds, profile, {}

    def __call__(self, lo: int, rows: np.ndarray) -> None:
        self.blocks[lo] = state_measures(rows, n_b=self.thresholds.n_b, profile=self.profile,
                                         amplitude_floor=self.thresholds.amplitude_floor)

    def measures(self) -> StateMeasures:
        blocks = [self.blocks[lo] for lo in sorted(self.blocks)]
        return StateMeasures(**{f.name: None if getattr(blocks[0], f.name) is None else
                                np.concatenate([getattr(block, f.name) for block in blocks])
                                for f in fields(StateMeasures)})


@dataclass(frozen=True)
class SpectralReport:
    """Everything the state table needs: measures plus band/subdomain/multiplet labels."""

    values: np.ndarray
    spacings: SpacingSpectrum
    measures: StateMeasures
    bands: BandPartition
    labels: SubdomainLabels
    multiplets: tuple[Multiplet, ...]
    thresholds: AnalysisThresholds

    @property
    def size(self) -> int:
        return self.values.size


def analyze(eig: EigenSystem, measures: StateMeasures,
            thresholds: AnalysisThresholds | None = None,
            expect_two_bands: bool = False) -> SpectralReport:
    """The spectrum-level analysis of one eigensystem, with the per-state `measures` its
    solve's walk took (`Measuring`)."""
    th = thresholds or AnalysisThresholds()
    spacings = spacing_spectrum(eig.values)
    bands = detect_bands(spacings, gamma=th.gamma)
    if expect_two_bands and len(bands.bands) != 2:
        warnings.warn(f"expected 2 bands for a two-level cell lattice, found {len(bands.bands)}",
                      stacklevel=2)
    return SpectralReport(values=eig.values, spacings=spacings, measures=measures,
                          bands=bands, labels=classify_states(measures, bands, tau=th.tau),
                          multiplets=detect_multiplets(spacings, bands, delta_rel=th.delta_rel),
                          thresholds=th)
