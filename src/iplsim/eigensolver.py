"""Full eigendecomposition of the lattice operator, with certified residuals.

Two independent routes: ``eigh_tridiagonal`` works on the (diag, offdiag)
arrays. It splits the operator into unreduced blocks, takes each block's
eigenvalues from LAPACK's root-free QR (``sterf``), cuts them into spectral
groups at gaps above ``GROUP_GAP_REL`` of the operator scale, and runs inverse
iteration (``dstein``) once per group. ``dense_oracle`` runs self-contained
Jacobi sweeps in round-robin (Brent–Luk) order on the expanded dense matrix.
Tests cross-validate the two. Both return the same certified ``EigenSystem``
contract. Inverse iteration matters here: it resolves the exponential tails
of localized eigenstates with componentwise accuracy, which the QR-family
eigenvector drivers do not. That accuracy ends at an absolute floor set by
the number of iterations dstein takes (about 1e-45 on the 200-site ground
state that the tests check against a 60-digit reference), so tail components
below it, such as fig1's ground-state edge amplitudes near 1e-46, are not
resolved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstein

SIGN_FLOOR = 1e-12
RESIDUAL_REL_CAP = 1e-10
ORTHO_CAP = 1e-10
TRACE_REL_CAP = 1e-8

# Spectral groups are cut where consecutive eigenvalues are more than this
# fraction of the scale apart. Davis-Kahan: a residual of at most 1e-14*scale
# over a gap of at least 1e-4*scale bounds the overlap between vectors of
# different groups by 1e-10, which is ORTHO_CAP.
GROUP_GAP_REL = 1e-4
# DSTEBZ's split rule: e_j^2 <= ULP^2 |d_j d_{j+1}| + SAFE_MIN decouples the
# operator at bond j
_ULP = float(np.finfo(float).eps)
_SAFE_MIN = float(np.finfo(float).tiny)

# states per block in every pass over the (sites x states) vectors once they
# are solved (certificate, measures, map raster), so a pass's scratch stays
# O(sites x block) next to the vector matrix
STATE_BLOCK = 128

DENSE_ORACLE_MAX_SITES = 256
_JACOBI_MAX_SWEEPS = 30


class SolverError(RuntimeError):
    """Eigensolver did not converge or failed its output certificate."""


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvectors (column k <-> values[k])."""

    values: np.ndarray
    vectors: np.ndarray
    residual_bound: float
    ortho_bound: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.size:
            raise ValueError(f"need 1-D values and one vector column per value, got "
                             f"{values.shape} values and {vectors.shape} vectors")
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return self.values.size


def eigh_tridiagonal(h) -> EigenSystem:
    """Diagonalize a TridiagonalHamiltonian; deterministic up to the sign convention.

    Each unreduced block is solved on its own, so a decoupled lattice keeps
    block-local vectors. Within a block, inverse iteration computes each
    vector from its eigenvalue, so the exponential tails of localized states
    come out with the right signs and magnitudes instead of QR noise; dstein
    reorthogonalizes only inside one spectral group (exact and near
    degeneracies), never across a whole band.
    """
    diag, offdiag = h.diag, h.offdiag
    if diag.size == 0:
        raise ValueError("empty operator")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise ValueError("operator entries must be finite")
    n = diag.size
    cut_gap = GROUP_GAP_REL * _scale(diag, offdiag)
    split = offdiag**2 <= _ULP**2 * np.abs(diag[:-1] * diag[1:]) + _SAFE_MIN
    edges = np.concatenate(([0], np.flatnonzero(split) + 1, [n]))
    blocks = list(zip(edges[:-1], edges[1:]))
    try:
        block_values = [scipy.linalg.eigvalsh_tridiagonal(diag[lo:hi], offdiag[lo:hi - 1],
                                                          lapack_driver="sterf")
                        for lo, hi in blocks]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise SolverError(f"tridiagonal eigenvalue solver failed to converge: {exc}") from exc
    values = np.concatenate(block_values)
    order = np.argsort(values, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)

    vectors = np.zeros((n, n))
    for (lo, hi), w in zip(blocks, block_values):
        size = hi - lo
        if size == 1:
            vectors[lo, column[lo]] = 1.0
            continue
        iblock = np.ones(size, dtype=np.int32)
        isplit = np.zeros(size, dtype=np.int32)
        isplit[0] = size
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(w) > cut_gap) + 1, [size]))
        for g0, g1 in zip(cuts[:-1], cuts[1:]):
            z, info = dstein(diag[lo:hi], offdiag[lo:hi - 1], w[g0:g1], iblock, isplit)
            if info != 0:
                raise SolverError(f"inverse iteration failed near {w[g0]:.6g} "
                                  f"(dstein info {info})")
            vectors[lo:hi, column[lo + g0:lo + g1]] = z
    return _certify(diag, offdiag, values[order], vectors)


def dense_oracle(h) -> EigenSystem:
    """Independent check path: round-robin Jacobi on the dense matrix, small sizes only."""
    n = h.sites
    if n > DENSE_ORACLE_MAX_SITES:
        raise ValueError(
            f"dense oracle refused: {n} sites exceeds the {DENSE_ORACLE_MAX_SITES}-site guard"
        )
    values, vectors = _jacobi(h.dense())
    order = np.argsort(values, kind="stable")
    return _certify(h.diag, h.offdiag, values[order], vectors[:, order])


def _jacobi(a: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin (Brent–Luk) Jacobi rotations until the off-diagonal mass is negligible.

    A sweep visits every pair once, in rounds of disjoint pairs (see
    `_round_robin`). The rotations of a round touch disjoint rows and columns,
    so they commute and are applied together: columns of A, rows of A, then
    rows of V^T. A pair whose coupling is already zero is left alone. V is kept
    transposed because a row update of a C-ordered array touches contiguous
    memory and a column update does not; the returned vectors are its transpose.
    """
    a = a.copy()
    n = a.shape[0]
    vt = np.eye(n)
    scale = np.linalg.norm(a)
    if scale == 0.0 or n == 1:
        return np.diag(a).copy(), vt
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        # Sum the off-diagonal mass directly; subtracting the diagonal mass from
        # the total Frobenius mass cancels catastrophically near convergence and
        # can report zero while 1e-10-scale entries remain.
        off = math.sqrt(float(np.sum((a - np.diag(np.diag(a))) ** 2)))
        if off <= 1e-14 * scale:
            return np.diag(a).copy(), vt.T
        for p, q in rounds:
            apq = a[p, q]
            coupled = apq != 0.0
            if not coupled.all():
                p, q, apq = p[coupled], q[coupled], apq[coupled]
                if not p.size:
                    continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
            big = abs(theta) > 1e150
            if big.any():
                t[big] = 1.0 / (2.0 * theta[big])
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # fancy indexing copies, so each update reads the values from before it
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p, row_q = a[p, :], a[q, :]
            a[p, :] = c[:, None] * row_p - s[:, None] * row_q
            a[q, :] = s[:, None] * row_p + c[:, None] * row_q
            a[p, q] = a[q, p] = 0.0
            vec_p, vec_q = vt[p, :], vt[q, :]
            vt[p, :] = c[:, None] * vec_p - s[:, None] * vec_q
            vt[q, :] = s[:, None] * vec_p + c[:, None] * vec_q
    raise SolverError(f"Jacobi sweep cap ({max_sweeps}) reached before convergence")


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep's pairs (p < q) as rounds of disjoint pairs.

    The round-robin tournament ordering of R. P. Brent and F. T. Luk, SIAM J.
    Sci. Stat. Comput. 6 (1985) 69-84: index 0 stays put while the others
    rotate one place per round, and position i meets position m-1-i. An odd n
    is padded with a bye index n, whose pairs are dropped, so every pair of
    indices below n appears exactly once in the m-1 rounds (m = n rounded up
    to even).
    """
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted((min(x, y), max(x, y)) for x, y in zip(ring[:m // 2], ring[::-1])
                       if max(x, y) < n)
        p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        rounds.append((p, q))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


def _scale(diag, offdiag) -> float:
    """Gershgorin-style operator scale max|d| + 2 max|e| that the caps are relative to."""
    return float(np.max(np.abs(diag)) + 2.0 * (np.max(np.abs(offdiag)) if offdiag.size else 0.0))


def _certify(diag, offdiag, values, vectors) -> EigenSystem:
    """Sign-fix (in place), measure residual/orthonormality, and enforce the output contract.

    Both passes walk the vectors in blocks of `STATE_BLOCK` columns, so the
    scratch next to the (sites x states) vector matrix is one (block x sites)
    row panel of the Gram matrix, V_b^T V[:, lo:]. The panels cover the Gram
    matrix's upper triangle: the flops of one symmetric product.
    """
    starts = range(0, vectors.shape[1], STATE_BLOCK)
    residual = 0.0
    for lo in starts:
        hi = lo + STATE_BLOCK
        block = _fix_signs(vectors[:, lo:hi])
        residual = max(residual, _block_residual(diag, offdiag, values[lo:hi], block))
    # the panel products run back to back: BLAS threads spin-wait after each
    # one, which costs CPU time when numpy work sits between them
    ortho = 0.0
    for lo in starts:
        block = vectors[:, lo:lo + STATE_BLOCK]
        panel = block.T @ vectors[:, lo:]
        k = block.shape[1]
        panel[np.arange(k), np.arange(k)] -= 1.0
        ortho = max(ortho, float(np.max(np.abs(panel, out=panel))))
        del panel  # freed before the next panel is made

    scale = _scale(diag, offdiag)
    if residual > RESIDUAL_REL_CAP * max(scale, 1e-300):
        raise SolverError(f"residual {residual:.3e} above certificate {RESIDUAL_REL_CAP * scale:.3e}")
    if ortho > ORTHO_CAP:
        raise SolverError(f"orthonormality defect {ortho:.3e} above {ORTHO_CAP:.1e}")
    trace_gap = abs(float(np.sum(values)) - float(np.sum(diag)))
    if trace_gap > TRACE_REL_CAP * diag.size * max(scale, 1.0):
        raise SolverError(f"trace drift {trace_gap:.3e} for {diag.size} sites")
    return EigenSystem(values, vectors, residual_bound=residual, ortho_bound=ortho)


def _block_residual(diag, offdiag, values, block) -> float:
    """max |T v - lambda v| over one column block, in tiles of `STATE_BLOCK` sites.

    Each entry is d v + e v_next + e v_prev - lambda v, summed in that order.
    A full-height block would need two (sites x block) buffers, twice the
    Gram panel that sets the certificate's scratch; a tile needs block^2.
    """
    n = diag.size
    worst = 0.0
    for r in range(0, n, STATE_BLOCK):
        s = min(r + STATE_BLOCK, n)
        hv = diag[r:s, None] * block[r:s]
        below = min(s, n - 1)  # sites r..below-1 couple to the next site
        hv[:below - r] += offdiag[r:below, None] * block[r + 1:below + 1]
        above = max(r, 1)  # sites above..s-1 couple to the previous site
        hv[above - r:] += offdiag[above - 1:s - 1, None] * block[above - 1:s - 1]
        hv -= block[r:s] * values
        worst = max(worst, float(np.max(np.abs(hv, out=hv))))
    return worst


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """First component with magnitude above the floor is made positive (reproducibility).

    Flips the columns in place and returns the same array, so no second
    (sites x states) buffer is made; `_certify` passes one column block of
    vectors it has just built.
    """
    significant = vectors > SIGN_FLOOR
    significant |= vectors < -SIGN_FLOOR
    lead = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (lead < 0.0)
    return np.multiply(vectors, np.where(flip, -1.0, 1.0), out=vectors)


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
    both = significant[:-1] & significant[1:]
    counts = np.sum(both & (v[:-1] * v[1:] < 0.0), axis=0)
    return int(counts) if v.ndim == 1 else counts

