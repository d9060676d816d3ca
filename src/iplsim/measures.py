"""Per-eigenstate localization diagnostics.

IPR weighs site participation only; the cumulative Friedel sum also sees the
spatial extent of the profile, which is what separates a state hugging one
region from one smeared over the whole lattice at equal participation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

NORM_TOL = 1e-10
# spacings within this many ulps of the largest |eigenvalue| are exact degeneracies
DEGENERACY_ULPS = 4


@dataclass(frozen=True)
class StateMeasures:
    """Per-state diagnostics of a block of normalized eigenstates, one array per measure.

    ipr: inverse participation ratio, sum_n p_n * p_n with p_n = psi_n^2, in
        [1/N, 1].
    cfs: cumulative Friedel sum |sum_n (exp(2 pi i P_n) + 1)| / (2N), with P_n
        the cumulative probability up to site n, computed as
        hypot(sum_n cos(2 pi P_n) + N, sum_n sin(2 pi P_n)) / (2N); 1 for a
        single-site state, 1/2 for a uniform one (the phase factors run through
        all N-th roots of unity and cancel).
    com: probability-weighted mean site index (1-based, fractional).
    w_left, w_right: probability mass in the first and last n_b sites.
    nodes: sign changes, counted by ``node_count``.
    """

    ipr: np.ndarray
    cfs: np.ndarray
    com: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    @classmethod
    def concatenate(cls, blocks) -> "StateMeasures":
        """Join the measures of consecutive state blocks."""
        return cls(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks])
                      for f in fields(cls)})


@dataclass(frozen=True)
class SpacingSpectrum:
    """Consecutive eigenvalue differences, clamped at zero.

    floor: the rounding scale of the eigenvalues (DEGENERACY_ULPS ulps of the
    largest magnitude); a spacing below it is an exact degeneracy.
    """

    spacings: np.ndarray
    floor: float

    def __post_init__(self):
        spacings = np.asarray(self.spacings, dtype=float)
        spacings.setflags(write=False)
        object.__setattr__(self, "spacings", spacings)


def spacing_spectrum(values: np.ndarray) -> SpacingSpectrum:
    """Differences of an ascending eigenvalue array."""
    values = np.asarray(values, dtype=float)
    diffs = np.diff(values)
    if np.any(diffs < -1e-12):
        raise ValueError("eigenvalues must be sorted ascending")
    return SpacingSpectrum(np.maximum(diffs, 0.0), floor=rounding_floor(values))


def rounding_floor(values: np.ndarray) -> float:
    """DEGENERACY_ULPS ulps of the largest |eigenvalue|: spacings below it are roundoff."""
    return DEGENERACY_ULPS * float(np.spacing(np.abs(values).max(initial=0.0)))


def node_count(vectors: np.ndarray, amplitude_floor: float = 1e-8):
    """Sign changes between consecutive components that both clear the amplitude floor.

    The floor is relative to the largest component; it suppresses sign noise in
    the numerically zero tails of strongly localized states. Pass 0 to count
    every strict sign change (the Sturm-oscillation regime). A (sites x states)
    block gives one count per column; a single vector gives an int.
    """
    v = np.asarray(vectors, dtype=float)
    magnitude = np.abs(v)
    significant = magnitude > amplitude_floor * np.max(magnitude, axis=0)
    del magnitude  # freed before the product of neighbours makes the next float block
    both = significant[:-1] & significant[1:]
    counts = np.sum(both & (v[:-1] * v[1:] < 0.0), axis=0)
    return int(counts) if v.ndim == 1 else counts


def state_measures(vectors: np.ndarray, n_b: int = 2,
                   amplitude_floor: float = 1e-8) -> StateMeasures:
    """All per-state diagnostics of a (sites x states) block of eigenvectors.

    With p = psi * psi per site and P its cumulative sum: ipr = sum p * p,
    cfs = hypot(sum cos(2 pi P) + N, sum sin(2 pi P)) / (2N), com = sum n * p
    (n from 1), w_left/w_right = sum p over the first/last n_b sites. Every
    reduction runs along the contiguous site axis of a (states x sites) copy,
    so each value equals the one computed from that state's vector alone.
    """
    rows = np.ascontiguousarray(np.asarray(vectors, dtype=float).T)
    if rows.ndim != 2:
        raise ValueError("vectors must be a (sites x states) block")
    sites = rows.shape[1]
    if not 1 <= n_b <= sites // 2:
        raise ValueError(f"edge window {n_b} out of range for {sites} sites")
    if np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > NORM_TOL):
        raise ValueError("vectors must be L2-normalized")
    # at most two (states x sites) float buffers live at once: prob, then its cumsum
    prob = rows * rows
    ipr = np.sum(prob * prob, axis=1)
    com = np.sum(np.arange(1, sites + 1) * prob, axis=1)
    w_left = np.sum(prob[:, :n_b], axis=1)
    w_right = np.sum(prob[:, sites - n_b:], axis=1)
    angles = np.cumsum(prob, axis=1)
    angles *= 2.0 * np.pi
    # sum_n (exp(i angle_n) + 1) = (sum cos + N) + i sum sin, with real temporaries only
    friedel_re = np.sum(np.cos(angles, out=prob), axis=1) + sites
    friedel_im = np.sum(np.sin(angles, out=angles), axis=1)
    del prob, angles  # freed before node_count makes its own scratch
    return StateMeasures(
        ipr=ipr,
        cfs=np.hypot(friedel_re, friedel_im) / (2 * sites),
        com=com,
        w_left=w_left,
        w_right=w_right,
        nodes=node_count(rows.T, amplitude_floor),
    )
