"""Per-eigenstate localization diagnostics.

IPR weighs site participation only; the cumulative Friedel sum also sees the
spatial extent of the profile, which is what separates a state hugging one
region from one smeared over the whole lattice at equal participation.
"""

from __future__ import annotations

import threading
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable

import numpy as np

from .eigensolver import STATE_BLOCK, per_core, rounding_floor, thread_count

NORM_TOL = 1e-10
# the measures of a state's whole profile, which one deferred walk computes together
PROFILE_MEASURES = ("ipr", "cfs", "com", "nodes")


@dataclass(frozen=True)
class StateMeasures:
    """Per-state diagnostics of a block of normalized eigenstates, one read-only array per measure.

    ipr: inverse participation ratio, sum_n p_n * p_n with p_n = psi_n^2, in
        [1/N, 1].
    cfs: cumulative Friedel sum |sum_n (exp(2 pi i P_n) + 1)| / (2N), with P_n
        the cumulative probability up to site n, computed as
        hypot(sum_n cos(2 pi P_n) + N, sum_n sin(2 pi P_n)) / (2N); 1 for a
        single-site state, 1/2 for a uniform one (the phase factors run through
        all N-th roots of unity and cancel).
    com: probability-weighted mean site index (1-based, fractional).
    w_left, w_right: probability mass in the first and last n_b sites.
    nodes: sign changes between consecutive components that both exceed
        amplitude_floor times the state's largest magnitude; the relative
        floor suppresses sign noise in the numerically zero tails of strongly
        localized states, and a floor of 0 counts every strict sign change
        (the Sturm-oscillation regime).

    The edge weights are given. The profile measures (ipr, cfs, com, nodes)
    come from `profile`, which returns all four: it is called the first time
    any of them is read, once even when threads read at the same time, and
    then dropped with everything it holds.
    """

    ipr: np.ndarray = field(init=False)
    cfs: np.ndarray = field(init=False)
    com: np.ndarray = field(init=False)
    w_left: np.ndarray
    w_right: np.ndarray
    nodes: np.ndarray = field(init=False)
    profile: InitVar[Callable[[], dict[str, np.ndarray]]]

    def __post_init__(self, profile):
        self.w_left.setflags(write=False)
        self.w_right.setflags(write=False)
        object.__setattr__(self, "_profile", profile)
        object.__setattr__(self, "_lock", threading.Lock())

    def __getattr__(self, name):
        # reached only for an attribute the instance does not hold yet
        if name not in PROFILE_MEASURES:
            raise AttributeError(f"'StateMeasures' object has no attribute {name!r}")
        with self._lock:
            if self._profile is not None:
                for key, values in self._profile().items():
                    values.setflags(write=False)
                    object.__setattr__(self, key, values)
                object.__setattr__(self, "_profile", None)
        return self.__dict__[name]

    def __getstate__(self):
        # pickled or deep-copied, the result holds its six arrays: a lock and a walk do not copy
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__dict__.update(state)


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


def state_measures(vectors: np.ndarray, n_b: int = 2,
                   amplitude_floor: float = 1e-8) -> StateMeasures:
    """All per-state diagnostics of a (sites x states) matrix of eigenvectors.

    With p = psi * psi per site and P its cumulative sum: ipr = sum p * p,
    cfs = hypot(sum cos(2 pi P) + N, sum sin(2 pi P)) / (2N), com = sum n * p
    (n from 1), w_left/w_right = sum p over the first/last n_b sites.

    The norm check and the edge weights run here. The profile measures run
    in one more walk, `_profile_walk`, the first time one of them is read
    (see `StateMeasures`), so until then the result holds `vectors` and
    reads them as they are at that time. Each walk goes over the states in
    blocks of `STATE_BLOCK // w` states, where `per_core` gives the matrix w
    threads, one contiguous chunk of blocks per thread, so the scratch of all
    threads together is about one block's: each thread's (block x sites)
    float buffers, which `per_core` makes, one for this walk and two for the
    profile walk. State-major vectors, whose transpose is C-ordered, are read
    in place. Each value reduces along one state's own row, so it equals the
    value of that state's vector alone, whatever the block and whichever
    thread.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a (sites x states) block")
    sites = vectors.shape[0]
    if not 1 <= n_b <= sites // 2:
        raise ValueError(f"edge window {n_b} out of range for {sites} sites")
    edges = _block_walk(vectors, ("w_left", "w_right"), 1,
                        lambda block, scratch, out: _edge_block(block, n_b, scratch, out))
    return StateMeasures(**edges, profile=lambda: _profile_walk(vectors, amplitude_floor))


def _profile_walk(vectors: np.ndarray, amplitude_floor: float) -> dict[str, np.ndarray]:
    """The PROFILE_MEASURES of every state of a (sites x states) matrix, by name."""
    site_index = np.arange(1.0, vectors.shape[0] + 1)
    return _block_walk(vectors, PROFILE_MEASURES, 2, lambda block, scratch, out: _measure_block(
        block, amplitude_floor, site_index, scratch, out))


def _block_walk(vectors, names, buffers, kernel) -> dict[str, np.ndarray]:
    """kernel(block, scratch, out) on each (sites x block) slice of `vectors`, through `per_core`.

    scratch holds `buffers` (block x sites) float buffers and one float per
    state; out maps each of `names` to the block's slice of that measure's
    array (int64 for nodes, float otherwise), and the whole arrays come back.
    """
    sites, states = vectors.shape
    work = sites * states
    block = max(1, STATE_BLOCK // thread_count(work))
    height = min(block, states)
    out = {name: np.empty(states, dtype=np.int64 if name == "nodes" else float) for name in names}

    def walk(chunk, scratch):
        for k in chunk:
            kernel(vectors[:, k:k + block], scratch,
                   {name: values[k:k + block] for name, values in out.items()})

    per_core(walk, range(0, states, block), work, lambda chunk: (
        *(np.empty((height, sites)) for _ in range(buffers)), np.empty(height)))
    return out


def _edge_block(vectors, n_b, scratch, out) -> None:
    """The norm check and the edge weights of a (sites x states) slice, into out's arrays.

    scratch holds one (rows x sites) float buffer and a float per row, for at
    least as many rows as states.
    """
    rows = np.ascontiguousarray(vectors.T)
    states, sites = rows.shape
    prob, per_state = (buffer[:states] for buffer in scratch)
    np.multiply(rows, rows, out=prob)
    # the bits of np.linalg.norm(rows, axis=1), which sums the same squares
    norm = np.sqrt(np.sum(prob, axis=1, out=per_state), out=per_state)
    # written so that a NaN fails it too
    if not np.all(np.abs(norm - 1.0) <= NORM_TOL):
        raise ValueError("vectors must be L2-normalized")
    np.sum(prob[:, :n_b], axis=1, out=out["w_left"])
    np.sum(prob[:, sites - n_b:], axis=1, out=out["w_right"])


def _measure_block(vectors, amplitude_floor, site_index, scratch, out) -> None:
    """The profile measures of a (sites x states) slice into out's arrays of as many values.

    scratch holds the two (rows x sites) float buffers and the float per row
    that the work happens in, for at least as many rows as states.
    """
    rows = np.ascontiguousarray(vectors.T)
    states, sites = rows.shape
    prob, work, per_state = (buffer[:states] for buffer in scratch)
    np.multiply(rows, rows, out=prob)
    np.sum(np.multiply(prob, prob, out=work), axis=1, out=out["ipr"])
    np.sum(np.multiply(site_index, prob, out=work), axis=1, out=out["com"])
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
