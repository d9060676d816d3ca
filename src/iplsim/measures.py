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

    @staticmethod
    def empty(states: int) -> dict[str, np.ndarray]:
        """Writable arrays of `states` values, one per field, for `state_measures` to fill."""
        return {f.name: np.empty(states, dtype=np.int64 if f.name == "nodes" else float)
                for f in fields(StateMeasures)}


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


class MeasureScratch:
    """The work buffers of `state_measures` for blocks of up to `states` states of `sites` sites.

    Two (states x sites) float buffers, one float per state and the 1-based
    site index. A caller that hands each thread its own scratch keeps every
    (states x sites) allocation on the calling thread.
    """

    def __init__(self, states: int, sites: int):
        self.prob = np.empty((states, sites))
        self.work = np.empty((states, sites))
        self.per_state = np.empty(states)
        self.site_index = np.arange(1.0, sites + 1)


def node_count(vectors: np.ndarray, amplitude_floor: float = 1e-8):
    """Sign changes between consecutive components that both clear the amplitude floor.

    The floor is relative to the largest component; it suppresses sign noise in
    the numerically zero tails of strongly localized states. Pass 0 to count
    every strict sign change (the Sturm-oscillation regime). A (sites x states)
    block gives one count per column; a single vector gives an int.
    """
    v = np.asarray(vectors, dtype=float)
    rows = np.ascontiguousarray(v.T.reshape(-1, v.shape[0]))
    counts = np.empty(rows.shape[0], dtype=np.int64)
    _count_nodes(rows, amplitude_floor, counts, np.empty_like(rows), np.empty_like(rows),
                 np.empty(rows.shape[0]))
    return int(counts[0]) if v.ndim == 1 else counts


def _count_nodes(rows, amplitude_floor, out, magnitude, flag_bytes, peak) -> None:
    """`node_count` of each of the (states x sites) rows into out, in the given buffers.

    magnitude and flag_bytes are C-ordered float buffers shaped like rows, and
    peak holds one float per state. The bytes of flag_bytes hold the
    significant flags, then the sign changes, both over the flattened rows, so
    every operation runs on contiguous memory; the last pair of each row,
    which straddles two states, is cleared before the count.
    """
    states, sites = rows.shape
    if states == 0:
        return
    size = states * sites
    np.abs(rows, out=magnitude)
    np.max(magnitude, axis=1, out=peak)
    peak *= amplitude_floor
    flags = flag_bytes.reshape(-1).view(np.bool_)
    significant = np.greater(magnitude, peak[:, None],
                             out=flags[:size].reshape(states, sites)).reshape(-1)
    flat = rows.reshape(-1)
    product = np.multiply(flat[:-1], flat[1:], out=magnitude.reshape(-1)[:-1])
    changes = np.less(product, 0.0, out=flags[size:2 * size - 1])
    changes &= significant[:-1]
    changes &= significant[1:]
    changes = flags[size:2 * size].reshape(states, sites)
    changes[:, -1] = False
    np.sum(changes, axis=1, out=out)


def state_measures(vectors: np.ndarray, n_b: int = 2, amplitude_floor: float = 1e-8, *,
                   scratch: MeasureScratch | None = None,
                   out: dict[str, np.ndarray] | None = None) -> StateMeasures:
    """All per-state diagnostics of a (sites x states) block of eigenvectors.

    With p = psi * psi per site and P its cumulative sum: ipr = sum p * p,
    cfs = hypot(sum cos(2 pi P) + N, sum sin(2 pi P)) / (2N), com = sum n * p
    (n from 1), w_left/w_right = sum p over the first/last n_b sites.
    The (states x sites) work happens in two float buffers, scratch's if
    given, and the values go to out's arrays if given (see
    `StateMeasures.empty`); the result views them. So a block of state-major
    vectors, whose transpose is already C-ordered, measured into a given
    scratch and out allocates nothing of the block's size. Every reduction
    runs along the contiguous site axis of the rows, so each value equals the
    one computed from that state's vector alone, whatever the block's size
    and whichever thread takes it; `analyze` relies on that when it splits
    the states over threads.
    """
    rows = np.ascontiguousarray(np.asarray(vectors, dtype=float).T)
    if rows.ndim != 2:
        raise ValueError("vectors must be a (sites x states) block")
    states, sites = rows.shape
    if not 1 <= n_b <= sites // 2:
        raise ValueError(f"edge window {n_b} out of range for {sites} sites")
    scratch = MeasureScratch(states, sites) if scratch is None else scratch
    out = StateMeasures.empty(states) if out is None else out
    prob, work = scratch.prob[:states], scratch.work[:states]
    per_state = scratch.per_state[:states]
    np.multiply(rows, rows, out=prob)
    # the bits of np.linalg.norm(rows, axis=1), which sums the same squares
    norm = np.sqrt(np.sum(prob, axis=1, out=per_state), out=per_state)
    if np.any(np.abs(norm - 1.0) > NORM_TOL):
        raise ValueError("vectors must be L2-normalized")
    np.sum(np.multiply(prob, prob, out=work), axis=1, out=out["ipr"])
    np.sum(np.multiply(scratch.site_index, prob, out=work), axis=1, out=out["com"])
    np.sum(prob[:, :n_b], axis=1, out=out["w_left"])
    np.sum(prob[:, sites - n_b:], axis=1, out=out["w_right"])
    angles = np.cumsum(prob, axis=1, out=work)
    angles *= 2.0 * np.pi
    # sum_n (exp(i angle_n) + 1) = (sum cos + N) + i sum sin, with real temporaries only
    friedel_re = np.sum(np.cos(angles, out=prob), axis=1, out=out["cfs"])
    friedel_re += sites
    friedel_im = np.sum(np.sin(angles, out=angles), axis=1, out=per_state)
    np.hypot(friedel_re, friedel_im, out=out["cfs"])
    out["cfs"] /= 2 * sites
    _count_nodes(rows, amplitude_floor, out["nodes"], prob, work, per_state)
    return StateMeasures(**out)
