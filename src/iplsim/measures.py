"""Per-eigenstate localization diagnostics.

IPR weighs site participation only; the cumulative Friedel sum also sees the
spatial extent of the profile, which is what separates a state hugging one
region from one smeared over the whole lattice at equal participation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .eigensolver import STATE_BLOCK, per_core, rounding_floor, thread_count

NORM_TOL = 1e-10


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
    if np.any(diffs < -1e-12):
        raise ValueError("eigenvalues must be sorted ascending")
    return SpacingSpectrum(np.maximum(diffs, 0.0), floor=rounding_floor(values))


def node_count(vectors: np.ndarray, amplitude_floor: float = 1e-8):
    """Sign changes between consecutive components that both clear the amplitude floor.

    The floor is relative to the largest component; it suppresses sign noise in
    the numerically zero tails of strongly localized states. Pass 0 to count
    every strict sign change (the Sturm-oscillation regime). A (sites x states)
    matrix gives one count per column, in blocks of `STATE_BLOCK` states that
    share one pair of (block x sites) buffers; a single vector gives an int.
    """
    v = np.asarray(vectors, dtype=float)
    columns = v.reshape(v.shape[0], -1)
    counts = np.empty(columns.shape[1], dtype=np.int64)
    height = min(STATE_BLOCK, counts.size)
    magnitude, flag_bytes = np.empty((height, v.shape[0])), np.empty((height, v.shape[0]))
    for lo in range(0, counts.size, STATE_BLOCK):
        rows = np.ascontiguousarray(columns[:, lo:lo + STATE_BLOCK].T)
        k = rows.shape[0]
        _count_nodes(rows, amplitude_floor, counts[lo:lo + k], magnitude[:k], flag_bytes[:k],
                     np.empty(k))
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


def state_measures(vectors: np.ndarray, n_b: int = 2,
                   amplitude_floor: float = 1e-8) -> StateMeasures:
    """All per-state diagnostics of a (sites x states) matrix of eigenvectors.

    With p = psi * psi per site and P its cumulative sum: ipr = sum p * p,
    cfs = hypot(sum cos(2 pi P) + N, sum sin(2 pi P)) / (2N), com = sum n * p
    (n from 1), w_left/w_right = sum p over the first/last n_b sites.

    The states go in blocks of `STATE_BLOCK // w` states, where `per_core`
    gives the matrix w threads, one contiguous chunk of blocks per thread, so
    the scratch of all threads together is about one block's: each thread's
    two (block x sites) float buffers, which `per_core` makes. State-major
    vectors, whose transpose is C-ordered, are read in place. Each value
    reduces along one state's own row, so it equals the value of that
    state's vector alone, whatever the block and whichever thread.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a (sites x states) block")
    sites, states = vectors.shape
    if not 1 <= n_b <= sites // 2:
        raise ValueError(f"edge window {n_b} out of range for {sites} sites")
    work = sites * states
    block = max(1, STATE_BLOCK // thread_count(work))
    starts = range(0, states, block)
    out = {f.name: np.empty(states, dtype=np.int64 if f.name == "nodes" else float)
           for f in fields(StateMeasures)}
    site_index = np.arange(1.0, sites + 1)
    height = min(block, states)

    def measure(chunk, scratch):
        for k in chunk:
            _measure_block(vectors[:, k:k + block], n_b, amplitude_floor, site_index, scratch,
                           {name: values[k:k + block] for name, values in out.items()})

    per_core(measure, starts, work, lambda chunk: (
        np.empty((height, sites)), np.empty((height, sites)), np.empty(height)))
    return StateMeasures(**out)


def _measure_block(vectors, n_b, amplitude_floor, site_index, scratch, out) -> None:
    """`state_measures` of a (sites x states) slice into out's arrays of as many values.

    scratch holds the two (rows x sites) float buffers and the float per row
    that the work happens in, for at least as many rows as states.
    """
    rows = np.ascontiguousarray(vectors.T)
    states, sites = rows.shape
    prob, work, per_state = (buffer[:states] for buffer in scratch)
    np.multiply(rows, rows, out=prob)
    # the bits of np.linalg.norm(rows, axis=1), which sums the same squares
    norm = np.sqrt(np.sum(prob, axis=1, out=per_state), out=per_state)
    if np.any(np.abs(norm - 1.0) > NORM_TOL):
        raise ValueError("vectors must be L2-normalized")
    np.sum(np.multiply(prob, prob, out=work), axis=1, out=out["ipr"])
    np.sum(np.multiply(site_index, prob, out=work), axis=1, out=out["com"])
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
