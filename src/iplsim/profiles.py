"""Phase profiles: the per-cell rotation angles that define a lattice design.

A profile is the design blueprint of an isospectrally patterned lattice.
Supported designs: equispaced linear grids (symmetric or asymmetric around
pi/4; phi_start == phi_end gives the constant SSH / Rice-Mele limit),
triangle-wave phase revolutions, and the two seeded random controls used as
comparison lattices (random phases, random on-site energies). Every rule on a
design lives in ProfileSpec, so each route that builds one refuses the same
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .rng import SplitMix64

QUARTER_TURN = math.pi / 4

PROFILE_KINDS = ("linear", "revolutions", "random_phase", "random_onsite")
# dense eigenvectors take 8 N^2 bytes: 3.2 GB at this many sites
MAX_SITES = 20_000


@dataclass(frozen=True)
class ProfileSpec:
    """Recipe for a phase sequence; round-trips through the JSON run manifest."""

    kind: str
    cells: int
    phi_start: float | None = None
    phi_end: float | None = None
    lf: float | None = None
    revolutions: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.cells < 2:
            raise ValueError("a lattice needs at least 2 cells")
        sites = 2 * self.cells
        if sites > MAX_SITES:
            raise ValueError(f"{sites} sites need 8*N^2 = {8 * sites**2 / 1e9:,.1f} GB of "
                             f"eigenvectors; the limit is {MAX_SITES} sites "
                             f"({8 * MAX_SITES**2 / 1e9:.1f} GB)")
        # a field that the kind ignores would pass through silently, so it is refused
        if self.lf is not None and self.kind != "linear":
            raise ValueError(f"lf sets a linear grid; {self.kind} profiles take none")
        if self.revolutions is not None and self.kind != "revolutions":
            raise ValueError(f"{self.kind} profiles take no revolutions")
        random = self.kind in ("random_phase", "random_onsite")
        if self.seed is not None and not random:
            raise ValueError(f"{self.kind} profiles are deterministic and take no seed")
        if random and self.seed is None:
            raise ValueError(f"{self.kind} profiles require a seed")
        if self.kind == "random_onsite":
            if self.phi_start is not None or self.phi_end is not None:
                raise ValueError("random_onsite randomizes on-site energies and carries no phases")
        elif self.phi_start is None or self.phi_end is None:
            raise ValueError(f"{self.kind} profiles need phi_start and phi_end")
        if self.kind == "revolutions":
            if self.revolutions is None or self.revolutions < 1:
                raise ValueError("revolutions kind needs revolutions >= 1")
            if self.phi_start >= self.phi_end:
                raise ValueError("revolutions need phi_start below phi_end")
        if self.kind == "random_phase" and self.phi_start > self.phi_end:
            raise ValueError("random_phase needs phi_start not above phi_end")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "cells": self.cells}
        for key in ("phi_start", "phi_end", "lf", "revolutions", "seed"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProfileSpec":
        return cls(**data)

    @classmethod
    def linear(cls, center: float, lf: float, cells: int) -> "ProfileSpec":
        """Equispaced grid on [center - L/2, center + L/2] with L = (pi/4)/lf."""
        if lf <= 0:
            raise ValueError("lf must be positive")
        width = QUARTER_TURN / lf
        return cls("linear", cells, phi_start=center - width / 2,
                   phi_end=center + width / 2, lf=lf)


@dataclass(frozen=True)
class PhaseProfile:
    """Ordered cell phases phi_1..phi_N plus the recipe that generated them."""

    phases: np.ndarray
    spec: ProfileSpec

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1 or phases.size != self.spec.cells:
            raise ValueError("phase count must equal the cell count")
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class OnsiteSequence:
    """Per-site energies for the random on-site comparison lattice."""

    values: np.ndarray
    seed: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def realize_profile(spec: ProfileSpec) -> PhaseProfile:
    """Deterministically expand a ProfileSpec into its phase array (manifest replay path).

    Revolutions are a triangle wave: from phi_start up to phi_end at each
    turning point and back, `revolutions` times in total; turning points that
    land on grid cells are exact by construction. Random phases are i.i.d.
    uniform in [phi_start, phi_end), seeded and bit-reproducible.
    """
    if spec.kind == "linear":
        phases = np.linspace(spec.phi_start, spec.phi_end, spec.cells)
    elif spec.kind == "revolutions":
        phases = _triangle_grid(spec.phi_start, spec.phi_end, spec.revolutions, spec.cells)
    elif spec.kind == "random_phase":
        rng = SplitMix64(spec.seed)
        phases = np.array([rng.uniform(spec.phi_start, spec.phi_end) for _ in range(spec.cells)])
    else:
        raise ValueError("random_onsite carries no phases; realize it with random_onsite_sequence")
    return PhaseProfile(phases, spec)


def _triangle_grid(phi_min: float, phi_max: float, revolutions: int, cells: int) -> np.ndarray:
    width = phi_max - phi_min
    denom = cells - 1
    m = np.arange(cells)
    # fractional part of revolutions * (m/denom), kept in integer arithmetic so
    # turning points that fall on the grid are exact
    num = (revolutions * m) % denom
    rising = 2 * num <= denom
    s = np.where(rising, 2.0 * num / denom, 2.0 * (denom - num) / denom)
    phases = phi_min + width * s
    phases[num == 0] = phi_min
    phases[2 * num == denom] = phi_max
    return phases


def random_onsite_sequence(d1: float, d2: float, sites: int, seed: int) -> OnsiteSequence:
    """Per-site energies drawn from {d1, d2} with probability 1/2 each."""
    if sites < 2:
        raise ValueError("need at least 2 sites")
    rng = SplitMix64(seed)
    values = np.array([d1 if rng.next_float() < 0.5 else d2 for _ in range(sites)])
    return OnsiteSequence(values, seed)
