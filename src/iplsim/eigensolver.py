"""Full eigendecomposition of the lattice operator, with certified residuals.

Two independent routes: ``eigh_tridiagonal`` drives LAPACK's bisection plus
inverse-iteration pair on the (diag, offdiag) arrays, while ``dense_oracle``
runs a self-contained cyclic Jacobi sweep on the expanded dense matrix. Tests
cross-validate the two. Both return the same certified ``EigenSystem``
contract. Inverse iteration matters here: it resolves the exponential tails
of localized eigenstates with componentwise accuracy, which the QR-family
drivers do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

SIGN_FLOOR = 1e-12
RESIDUAL_REL_CAP = 1e-10
ORTHO_CAP = 1e-10
TRACE_REL_CAP = 1e-8

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
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return self.values.size


def eigh_tridiagonal(h) -> EigenSystem:
    """Diagonalize a TridiagonalHamiltonian; deterministic up to the sign convention."""
    diag, offdiag = h.diag, h.offdiag
    if diag.size == 0:
        raise ValueError("empty operator")
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
        raise ValueError("operator entries must be finite")
    if diag.size == 1:
        values = diag.copy()
        vectors = np.ones((1, 1))
        return _certify(diag, offdiag, values, vectors)
    try:
        # Bisection plus inverse iteration: each vector is computed on its own,
        # so the exponential tails of localized states come out with the right
        # signs and magnitudes instead of QR noise.
        values, vectors = scipy.linalg.eigh_tridiagonal(diag, offdiag, lapack_driver="stebz")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise SolverError(f"tridiagonal eigensolver failed to converge: {exc}") from exc
    order = np.argsort(values, kind="stable")
    return _certify(diag, offdiag, values[order], vectors[:, order])


def dense_oracle(h) -> EigenSystem:
    """Independent check path: cyclic Jacobi on the dense matrix, small sizes only."""
    n = h.sites
    if n > DENSE_ORACLE_MAX_SITES:
        raise ValueError(
            f"dense oracle refused: {n} sites exceeds the {DENSE_ORACLE_MAX_SITES}-site guard"
        )
    values, vectors = _jacobi(h.dense())
    order = np.argsort(values, kind="stable")
    return _certify(h.diag, h.offdiag, values[order], vectors[:, order])


def _jacobi(a: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic-by-row Jacobi rotations until the off-diagonal mass is negligible."""
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    scale = np.linalg.norm(a)
    if scale == 0.0 or n == 1:
        return np.diag(a).copy(), v
    for _ in range(max_sweeps):
        # Sum the off-diagonal mass directly; subtracting the diagonal mass from
        # the total Frobenius mass cancels catastrophically near convergence and
        # can report zero while 1e-10-scale entries remain.
        off = math.sqrt(float(np.sum((a - np.diag(np.diag(a))) ** 2)))
        if off <= 1e-14 * scale:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    raise SolverError(f"Jacobi sweep cap ({max_sweeps}) reached before convergence")


def _certify(diag, offdiag, values, vectors) -> EigenSystem:
    """Sign-fix, measure residual/orthonormality, and enforce the output contract."""
    vectors = _fix_signs(vectors)
    hv = diag[:, None] * vectors
    if diag.size > 1:
        hv[:-1] += offdiag[:, None] * vectors[1:]
        hv[1:] += offdiag[:, None] * vectors[:-1]
    residual = float(np.max(np.abs(hv - vectors * values[None, :])))
    gram = vectors.T @ vectors
    ortho = float(np.max(np.abs(gram - np.eye(diag.size))))

    scale = float(np.max(np.abs(diag)) + 2.0 * (np.max(np.abs(offdiag)) if offdiag.size else 0.0))
    if residual > RESIDUAL_REL_CAP * max(scale, 1e-300):
        raise SolverError(f"residual {residual:.3e} above certificate {RESIDUAL_REL_CAP * scale:.3e}")
    if ortho > ORTHO_CAP:
        raise SolverError(f"orthonormality defect {ortho:.3e} above {ORTHO_CAP:.1e}")
    trace_gap = abs(float(np.sum(values)) - float(np.sum(diag)))
    if trace_gap > TRACE_REL_CAP * diag.size * max(scale, 1.0):
        raise SolverError(f"trace drift {trace_gap:.3e} for {diag.size} sites")
    return EigenSystem(values, vectors, residual_bound=residual, ortho_bound=ortho)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """First component with magnitude above the floor is made positive (reproducibility)."""
    significant = np.abs(vectors) > SIGN_FLOOR
    lead = vectors[np.argmax(significant, axis=0), np.arange(vectors.shape[1])]
    flip = significant.any(axis=0) & (lead < 0.0)
    return vectors * np.where(flip, -1.0, 1.0)


def node_count(vectors: np.ndarray, amplitude_floor: float = 1e-8):
    """Sign changes between consecutive components that both clear the amplitude floor.

    The floor is relative to the largest component; it suppresses sign noise in
    the numerically zero tails of strongly localized states. Pass 0 to count
    every strict sign change (the Sturm-oscillation regime). A (sites x states)
    block gives one count per column; a single vector gives an int.
    """
    v = np.asarray(vectors, dtype=float)
    significant = np.abs(v) > amplitude_floor * np.max(np.abs(v), axis=0)
    both = significant[:-1] & significant[1:]
    counts = np.sum(both & (v[:-1] * v[1:] < 0.0), axis=0)
    return int(counts) if v.ndim == 1 else counts


def eigenvalue_count_below(h, shift: float) -> int:
    """Sturm-sequence count of eigenvalues strictly below the shift."""
    d, e = h.diag, h.offdiag
    count = 0
    q = 1.0
    for i in range(d.size):
        coupling = float(e[i - 1]) ** 2 if i > 0 else 0.0
        q = (float(d[i]) - shift) - coupling / q
        if q == 0.0:
            # zero pivot counts as negative (LAPACK pivmin convention)
            q = -5e-324
        if q < 0.0:
            count += 1
    return count
