"""Cell matrices and lattice assembly.

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

from .profiles import OnsiteSequence, PhaseProfile, ProfileSpec


@dataclass(frozen=True)
class CellParams:
    """Spectral content (d1 <= d2) and intercell coupling shared by all cells."""

    d1: float
    d2: float
    eps: float

    def __post_init__(self):
        for name in ("d1", "d2", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.d1 > self.d2:
            # normalize so the lower band stays associated with d1
            lo, hi = self.d2, self.d1
            object.__setattr__(self, "d1", lo)
            object.__setattr__(self, "d2", hi)


@dataclass(frozen=True)
class CellMatrix:
    """One symmetric 2x2 cell, isospectral to diag(d1, d2) for every phase."""

    a11: float
    a12: float
    a22: float
    phi: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])


def cell_matrix(params: CellParams, phi: float) -> CellMatrix:
    """Rotate diag(d1, d2) by phi: the inverse rotation applied left, rotation right."""
    c, s = math.cos(phi), math.sin(phi)
    d1, d2 = params.d1, params.d2
    off = (d2 - d1) * s * c
    return CellMatrix(a11=d1 * c * c + d2 * s * s, a12=off,
                      a22=d1 * s * s + d2 * c * c, phi=phi)


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Assembled lattice operator as diagonal + off-diagonal arrays (N_s = 2N sites)."""

    diag: np.ndarray
    offdiag: np.ndarray
    cells: int
    params: CellParams | None
    profile: ProfileSpec | None

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
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


def assemble(profile: PhaseProfile, params: CellParams) -> TridiagonalHamiltonian:
    """Lay the phase-parametrized cells along the diagonal and couple neighbors."""
    phi = profile.phases
    if phi.size == 0:
        raise ValueError("profile must be nonempty")
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
    return TridiagonalHamiltonian(diag, offdiag, cells=phi.size,
                                  params=params, profile=profile.spec)


def assemble_onsite(seq: OnsiteSequence, eps: float,
                    spec: ProfileSpec | None = None) -> TridiagonalHamiltonian:
    """Comparison lattice: random on-site energies with a uniform chain coupling."""
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")
    diag = np.asarray(seq.values, dtype=float)
    offdiag = np.full(diag.size - 1, float(eps))
    return TridiagonalHamiltonian(diag, offdiag, cells=diag.size // 2,
                                  params=None, profile=spec)
