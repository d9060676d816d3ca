"""Spectrum-level structure.

Band detection from spacing outliers, A/B/C subdomain classification from
edge weights, near-degeneracy multiplet grouping, and the per-state map
raster used for the grey-scale eigenstate figures.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .eigensolver import STATE_BLOCK, EigenSystem
from .measures import (SpacingSpectrum, StateMeasures, rounding_floor, spacing_spectrum,
                       state_measures)


@dataclass(frozen=True)
class AnalysisThresholds:
    """Tunable knobs of the spectrum analysis; defaults cover all bundled presets."""

    n_b: int = 2
    tau: float = 3e-5
    gamma: float = 20.0
    delta_rel: float = 0.05
    amplitude_floor: float = 1e-8

    def __post_init__(self):
        # refused here, so a bad value never costs a solve on any route
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
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
    """Disjoint index ranges over the sorted spectrum, split at outlier spacings."""

    bands: tuple[range, ...]
    gaps: tuple[tuple[float, int], ...]
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
    crossovers: tuple[tuple[int, int] | None, ...]
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
    node_counts: tuple[int, ...] | None = None

    @property
    def members(self) -> range:
        return range(self.start, self.start + self.size)


@dataclass(frozen=True)
class MultipletReport:
    groups: tuple[Multiplet, ...]

    def sizes(self) -> list[int]:
        return [g.size for g in self.groups]

    def group_of(self, state: int) -> Multiplet:
        for g in self.groups:
            if state in g.members:
                return g
        raise IndexError(f"state {state} not covered by any multiplet")


def detect_bands(values: np.ndarray, gamma: float = 20.0) -> BandPartition:
    """Split the sorted spectrum at every spacing above gamma times the median spacing.

    A spacing at or below the rounding floor of the eigenvalues never splits,
    so a spectrum of exact levels (a uniform chain: 0.8, 1.0, 1.2) splits at
    its level gaps only, however small the median. If nothing qualifies, fall
    back to the single largest spacing, flagged low confidence; a strictly
    uniform ladder stays one band.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 4:
        raise ValueError("band detection needs at least 4 states")
    spac = np.diff(values)
    floor = rounding_floor(values)
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
    edges = [0, *(int(b) + 1 for b in boundaries), values.size]
    bands = tuple(range(a, b) for a, b in zip(edges[:-1], edges[1:]))
    gaps = tuple((float(spac[int(b)]), int(b)) for b in boundaries)
    return BandPartition(bands=bands, gaps=gaps, low_confidence=low_confidence)


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
    crossovers: list[tuple[int, int] | None] = []
    interior = 0
    for band in bands.bands:
        deloc = [k for k in band if not localized[k]]
        if not deloc:
            crossovers.append(None)
            continue
        first, last = deloc[0], deloc[-1]
        labels[first:last + 1] = "B"
        labels[last + 1:band.stop] = "C"
        crossovers.append((first, last))
        interior += int(np.sum(localized[first:last + 1]))
    return SubdomainLabels(labels=labels, localized=localized,
                           crossovers=tuple(crossovers), interior_localized=interior)


def delocalized_fraction(labels: SubdomainLabels) -> float:
    """Share of states extending to both lattice edges."""
    return float(np.mean(~labels.localized))


def detect_multiplets(spacings: SpacingSpectrum, bands: BandPartition,
                      delta_rel: float = 0.05,
                      node_counts: np.ndarray | None = None) -> MultipletReport:
    """Group consecutive states whose spacings fall below delta_rel of the band median.

    Spacings below the spectrum's rounding floor always join, so exactly
    degenerate levels group even when the band median is itself zero.
    """
    if delta_rel <= 0:
        raise ValueError("delta_rel must be positive")
    spac = spacings.spacings
    groups: list[Multiplet] = []
    for band_index, band in enumerate(bands.bands):
        band_spac = spac[band.start:band.stop - 1]
        median = float(np.median(band_spac)) if band_spac.size else 0.0
        threshold = max(delta_rel * median, spacings.floor)
        start = band.start
        for k in band:
            if k + 1 < band.stop and spac[k] < threshold:
                continue
            size = k - start + 1
            nodes = tuple(int(x) for x in node_counts[start:k + 1]) if node_counts is not None else None
            groups.append(Multiplet(band=band_index, start=start, size=size, node_counts=nodes))
            start = k + 1
    return MultipletReport(groups=tuple(groups))


def eigenstate_map(eig: EigenSystem, selection: range) -> np.ndarray:
    """Read-only (states x sites) raster of |psi| for the selected states.

    Each row is one state renormalized to max 1. Row order is descending in
    state index so the highest selected state sits on top, matching the usual
    band-map orientation; `write_pgm` takes the raster as it is.
    """
    indices = np.array(sorted(selection, reverse=True), dtype=int)
    if indices.size == 0:
        raise ValueError("empty state selection")
    if indices[-1] < 0 or indices[0] >= eig.size:
        raise ValueError("selection out of bounds")
    # the fancy-index copy is the raster's only buffer
    rows = eig.vectors[:, indices].T
    np.abs(rows, out=rows)
    rows /= rows.max(axis=1, keepdims=True)
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class SpectralReport:
    """Everything the state table needs: measures plus band/subdomain/multiplet labels."""

    values: np.ndarray
    spacings: SpacingSpectrum
    measures: StateMeasures
    bands: BandPartition
    labels: SubdomainLabels
    multiplets: MultipletReport
    thresholds: AnalysisThresholds
    band_of: np.ndarray = field(repr=False)
    multiplet_of: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.values.size


def analyze(eig: EigenSystem, thresholds: AnalysisThresholds | None = None,
            expect_two_bands: bool = False) -> SpectralReport:
    """Run the full per-state and spectrum-level analysis on one eigensystem."""
    th = thresholds or AnalysisThresholds()
    spacings = spacing_spectrum(eig.values)
    bands = detect_bands(eig.values, gamma=th.gamma)
    if expect_two_bands and len(bands.bands) != 2:
        warnings.warn(f"expected 2 bands for a two-level cell lattice, found {len(bands.bands)}",
                      stacklevel=2)
    measures = StateMeasures.concatenate([
        state_measures(eig.vectors[:, k:k + STATE_BLOCK], n_b=th.n_b,
                       amplitude_floor=th.amplitude_floor)
        for k in range(0, eig.size, STATE_BLOCK)])
    labels = classify_states(measures, bands, tau=th.tau)
    multiplets = detect_multiplets(spacings, bands, delta_rel=th.delta_rel,
                                   node_counts=measures.nodes)

    band_of = np.empty(eig.size, dtype=int)
    for i, band in enumerate(bands.bands):
        band_of[band.start:band.stop] = i
    multiplet_of = np.empty(eig.size, dtype=int)
    for gid, group in enumerate(multiplets.groups):
        multiplet_of[group.start:group.start + group.size] = gid

    return SpectralReport(values=eig.values, spacings=spacings, measures=measures,
                          bands=bands, labels=labels, multiplets=multiplets,
                          thresholds=th, band_of=band_of, multiplet_of=multiplet_of)
