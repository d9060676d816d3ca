"""Lattice assembly.

Every cell is the 2x2 rotation of diag(d1, d2) by its phase, so all cells
share the eigenvalues {d1, d2} regardless of phase. Neighboring cells couple
through a single corner entry of strength eps, which makes the assembled
lattice operator exactly real symmetric tridiagonal; it is stored as the
(diag, offdiag) array pair only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import read_fields, read_real


@dataclass(frozen=True)
class CellParams:
    """Spectral content (d1 <= d2) and intercell coupling shared by all cells."""

    d1: float
    d2: float
    eps: float

    def __post_init__(self):
        read_fields(self, read_real, ("d1", "d2", "eps"))
        if self.d1 > self.d2:
            # normalize so the lower band stays associated with d1
            lo, hi = self.d2, self.d1
            object.__setattr__(self, "d1", lo)
            object.__setattr__(self, "d2", hi)
        # bounds the assembled operator's scale max|diag| + 2 max|offdiag|, which the
        # solver refuses when it overflows: refused here, before any compute
        scale = max(abs(self.d1), abs(self.d2)) + max(self.d2 - self.d1, 2 * abs(self.eps))
        if not math.isfinite(scale):
            raise ValueError("cell parameters overflow: max(|d1|, |d2|) + "
                             "max(d2 - d1, 2|eps|) must lie inside the float range")


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Assembled lattice operator as diagonal + off-diagonal arrays (N_s = 2N sites)."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        # own copies, so freezing them leaves the caller's arrays writable
        diag = np.array(self.diag, dtype=float)
        offdiag = np.array(self.offdiag, dtype=float)
        if offdiag.size != diag.size - 1:
            raise ValueError("offdiag must have one entry less than diag")
        diag.setflags(write=False)
        offdiag.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)

    @property
    def sites(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        """Expand to a dense symmetric matrix (oracle and inspection use only)."""
        h = np.diag(self.diag)
        idx = np.arange(self.sites - 1)
        h[idx, idx + 1] = self.offdiag
        h[idx + 1, idx] = self.offdiag
        return h


def _sequence(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need a nonempty 1-D array")
    return values


def assemble(phases: np.ndarray, params: CellParams) -> TridiagonalHamiltonian:
    """Lay one cell per entry of the phase array along the diagonal and couple neighbors.

    Cell i is R^T diag(d1, d2) R with R = [[cos, -sin], [sin, cos]] at phi_i:
    diagonal entries d1 cos^2 + d2 sin^2 and d1 sin^2 + d2 cos^2, coupling
    (d2 - d1) sin cos. It is the operator's i-th 2x2 diagonal block.
    """
    phi = _sequence(phases)
    c2 = np.cos(phi) ** 2
    s2 = np.sin(phi) ** 2
    cross = (params.d2 - params.d1) * np.sin(phi) * np.cos(phi)

    n_sites = 2 * phi.size
    diag = np.empty(n_sites)
    diag[0::2] = params.d1 * c2 + params.d2 * s2
    diag[1::2] = params.d1 * s2 + params.d2 * c2
    offdiag = np.empty(n_sites - 1)
    offdiag[0::2] = cross
    offdiag[1::2] = params.eps
    return TridiagonalHamiltonian(diag, offdiag)


def assemble_onsite(energies: np.ndarray, eps: float) -> TridiagonalHamiltonian:
    """Comparison lattice: the per-site energy array as diagonal, uniform chain coupling eps."""
    diag = _sequence(energies)
    return TridiagonalHamiltonian(diag, np.full(diag.size - 1, float(eps)))
