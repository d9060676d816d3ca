"""Per-eigenstate localization diagnostics.

IPR weighs site participation only; the cumulative Friedel sum also sees the
spatial extent of the profile, which is what separates a state hugging one
region from one smeared over the whole lattice at equal participation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .eigensolver import rounding_floor

NORM_TOL = 1e-10
# the measures of a state's whole profile, which a run computes only when it writes them
PROFILE_MEASURES = ("ipr", "cfs", "com", "nodes")


@dataclass(frozen=True)
class StateMeasures:
    """Per-state diagnostics of a block of normalized eigenstates, one read-only array per measure.

    ipr: inverse participation ratio sum_n p_n^2, p_n = psi_n^2, in [1/N, 1].
    cfs: cumulative Friedel sum |sum_n (exp(2 pi i P_n) + 1)| / (2N), P_n the
        cumulative probability up to site n, computed as hypot(sum_n cos(2 pi
        P_n) + N, sum_n sin(2 pi P_n)) / (2N): 1 for a one-site state, 1/2 for
        a uniform one (its phase factors are the N-th roots of unity).
    com: probability-weighted mean site index (1-based, fractional).
    w_left, w_right: probability mass in the first and last n_b sites.
    nodes: sign changes between consecutive components both above
        amplitude_floor times the state's largest magnitude, which hides the
        sign noise of numerically zero tails (0 counts every strict change).

    The PROFILE_MEASURES are None where only the edge weights were asked
    for: a sweep point, or a run that writes no states.csv.
    """

    ipr: np.ndarray | None
    cfs: np.ndarray | None
    com: np.ndarray | None
    w_left: np.ndarray
    w_right: np.ndarray
    nodes: np.ndarray | None

    def __post_init__(self):
        for f in fields(self):
            values = getattr(self, f.name)
            if values is not None:
                values.setflags(write=False)


@dataclass(frozen=True)
class SpacingSpectrum:
    """Consecutive eigenvalue differences, clamped at zero.

    floor: the rounding scale of the eigenvalues (`rounding_floor`, a few ulps
    of the largest magnitude); a spacing below it is an exact degeneracy.
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
    # written so that a NaN fails it too
    if not np.all(diffs >= -1e-12):
        raise ValueError("eigenvalues must be sorted ascending")
    return SpacingSpectrum(np.maximum(diffs, 0.0), floor=rounding_floor(values))


def state_measures(rows: np.ndarray, n_b: int = 2, amplitude_floor: float = 1e-8,
                   profile: bool = True) -> StateMeasures:
    """All per-state diagnostics of (states x sites) rows of eigenvectors, as a walk hands them.

    With p = psi * psi per site and P its cumulative sum: ipr = sum p * p,
    cfs = hypot(sum cos(2 pi P) + N, sum sin(2 pi P)) / (2N), com = sum n * p
    (n from 1), w_left/w_right = sum p over the first/last n_b sites. Without
    `profile`, only the norm check and the edge weights run.

    The rows go through two (states x sites) float buffers (one without
    `profile`) and are read in place. Each value reduces along one state's
    own row, so it is the same bits whatever the run and thread (a solve's
    walk calls this per run of a block).
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a (states x sites) block")
    states, sites = rows.shape
    if not 1 <= n_b <= sites // 2:
        raise ValueError(f"edge window {n_b} out of range for {sites} sites")
    names = ("w_left", "w_right", *(PROFILE_MEASURES if profile else ()))
    out = {name: np.empty(states, dtype=np.int64 if name == "nodes" else float) for name in names}
    scratch = (*(np.empty((states, sites)) for _ in range(1 + profile)), np.empty(states))
    prob, per_state = scratch[0], scratch[-1]
    np.multiply(rows, rows, out=prob)
    # the bits of np.linalg.norm(rows, axis=1), which sums the same squares;
    # written so that a NaN fails it too
    norm = np.sqrt(np.sum(prob, axis=1, out=per_state), out=per_state)
    if not np.all(np.abs(norm - 1.0) <= NORM_TOL):
        raise ValueError("vectors must be L2-normalized")
    np.sum(prob[:, :n_b], axis=1, out=out["w_left"])
    np.sum(prob[:, sites - n_b:], axis=1, out=out["w_right"])
    if profile:
        _measure_block(rows, amplitude_floor, scratch, out)
    return StateMeasures(**{f.name: out.get(f.name) for f in fields(StateMeasures)})


def _measure_block(rows, amplitude_floor, scratch, out) -> None:
    """The profile measures of (states x sites) rows into out's arrays, in scratch's two
    (states x sites) buffers (the first holding the probabilities) and one float per row."""
    states, sites = rows.shape
    prob, work, per_state = scratch
    np.sum(np.multiply(prob, prob, out=work), axis=1, out=out["ipr"])
    np.sum(np.multiply(np.arange(1.0, sites + 1), prob, out=work), axis=1, out=out["com"])
    angles = np.cumsum(prob, axis=1, out=work)
    angles *= 2.0 * np.pi
    # sum_n (exp(i angle_n) + 1) = (sum cos + N) + i sum sin, with real temporaries only
    friedel_re = np.sum(np.cos(angles, out=prob), axis=1, out=out["cfs"])
    friedel_re += sites
    friedel_im = np.sum(np.sin(angles, out=angles), axis=1, out=per_state)
    np.hypot(friedel_re, friedel_im, out=out["cfs"])
    out["cfs"] /= 2 * sites
    # nodes: the bytes of work hold the significant flags, then the sign
    # changes, both over the flattened rows, so every operation runs on
    # contiguous memory; the last pair of each row, which straddles two
    # states, is cleared before the count
    size = states * sites
    np.abs(rows, out=prob)
    np.max(prob, axis=1, out=per_state)
    per_state *= amplitude_floor
    flags = work.reshape(-1).view(np.bool_)
    significant = np.greater(prob, per_state[:, None],
                             out=flags[:size].reshape(states, sites)).reshape(-1)
    flat = rows.reshape(-1)
    product = np.multiply(flat[:-1], flat[1:], out=prob.reshape(-1)[:-1])
    changes = np.less(product, 0.0, out=flags[size:2 * size - 1])
    changes &= significant[:-1]
    changes &= significant[1:]
    changes = flags[size:2 * size].reshape(states, sites)
    changes[:, -1] = False
    np.sum(changes, axis=1, out=out["nodes"])
