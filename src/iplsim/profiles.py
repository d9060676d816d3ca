"""Phase profiles: the per-cell rotation angles that define a lattice design.

A profile is the design blueprint of an isospectrally patterned lattice.
Supported designs: equispaced linear grids (symmetric or asymmetric around
pi/4; phi_start == phi_end gives the constant SSH / Rice-Mele limit),
triangle-wave phase revolutions, and the two seeded random controls used as
comparison lattices (random phases, random on-site energies). Every rule on a
design lives in ProfileSpec, so each route that builds one refuses the same
inputs. The config types read their own fields through `read_integer` and
`read_real`, so a setting is typed and checked once, whatever route it came
by: text from the command line, a number from Python or a manifest.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .rng import SplitMix64

QUARTER_TURN = math.pi / 4

PROFILE_KINDS = ("linear", "revolutions", "random_phase", "random_onsite")
# the solve's time grows at least as N^2, and much faster on a lattice that does
# not fold into mirror sectors (an asymmetric one took 12.8 s at 4000 sites on a
# 2 vCPU Xeon)
MAX_SITES = 20_000


def read_integer(name: str, value: Any) -> int:
    """An int (not a bool), or text that parses as one; a fraction is refused, never truncated."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def read_real(name: str, value: Any) -> float:
    """A finite float from a number (not a bool) or numeric text."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def read_fields(obj: Any, reader, names, optional: bool = False) -> None:
    """Store each named field of a frozen dataclass as read; an optional None stays None."""
    for name in names:
        if getattr(obj, name) is not None or not optional:
            object.__setattr__(obj, name, reader(name, getattr(obj, name)))


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
        read_fields(self, read_integer, ("cells",))
        read_fields(self, read_integer, ("revolutions", "seed"), optional=True)
        read_fields(self, read_real, ("phi_start", "phi_end", "lf"), optional=True)
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.cells < 2:
            raise ValueError("a lattice needs at least 2 cells")
        sites = 2 * self.cells
        if sites > MAX_SITES:
            raise ValueError(f"{sites} sites exceed the limit of {MAX_SITES}: the solve's time "
                             f"grows at least as N^2, and much faster on a lattice that does "
                             f"not fold into mirror sectors")
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
        if random and not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
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
        if self.lf is not None:
            if self.lf <= 0:
                raise ValueError("lf must be positive")
            # `linear` rounds each end once, so its width is off by at most an
            # ulp of the larger end plus an ulp of the width; allow twice that
            width = self.phi_end - self.phi_start
            slack = 2 * (math.ulp(max(abs(self.phi_start), abs(self.phi_end))) + math.ulp(width))
            if abs(width - QUARTER_TURN / self.lf) > slack:
                raise ValueError(f"lf={self.lf} sets a width of (pi/4)/lf = "
                                 f"{QUARTER_TURN / self.lf!r}, but phi_end - phi_start = {width!r}")

    def to_dict(self) -> dict[str, Any]:
        """The fields that are set; `ProfileSpec(**d)` is the inverse."""
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def linear(cls, center: float, lf: float, cells: int) -> "ProfileSpec":
        """Equispaced grid on [center - L/2, center + L/2] with L = (pi/4)/lf."""
        center, lf = read_real("center", center), read_real("lf", lf)
        if lf <= 0:
            raise ValueError("lf must be positive")
        width = QUARTER_TURN / lf
        return cls("linear", cells, phi_start=center - width / 2,
                   phi_end=center + width / 2, lf=lf)


def realize_profile(spec: ProfileSpec) -> np.ndarray:
    """Deterministically expand a ProfileSpec into its read-only phase array.

    The array holds one phase per cell, phi_1..phi_N (``spec.cells`` floats),
    and is what `assemble` takes; replaying a manifest goes through here.

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
    phases.setflags(write=False)
    return phases


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


def random_onsite_sequence(d1: float, d2: float, sites: int, seed: int) -> np.ndarray:
    """Read-only array of per-site energies, each d1 or d2 with probability 1/2.

    The array (``sites`` floats) is the diagonal that `assemble_onsite` takes.
    """
    if sites < 2:
        raise ValueError("need at least 2 sites")
    rng = SplitMix64(seed)
    values = np.array([d1 if rng.next_float() < 0.5 else d2 for _ in range(sites)])
    values.setflags(write=False)
    return values
