"""Isospectrally patterned lattices: build, diagonalize, analyze.

Chains of 2x2 cells that all share the eigenvalues {d1, d2} but differ in
their rotation phase. The phase profile alone decides where states localize,
which states pair up, and how much of a band delocalizes; this package builds
the resulting tridiagonal operators, diagonalizes them with certified bounds,
and reduces the eigensystems to localization measures, band subdomains, and
near-degeneracy multiplets, with deterministic CSV/PGM/JSON artifacts.
"""

from ._version import __version__
from .rng import SplitMix64
from .profiles import (QUARTER_TURN, PROFILE_KINDS, MAX_SITES, ProfileSpec,
                       realize_profile, random_onsite_sequence)
from .hamiltonian import CellParams, TridiagonalHamiltonian, assemble, assemble_onsite
from .eigensolver import EigenSystem, SolverError, eigh_tridiagonal, dense_oracle
from .measures import (StateMeasures, SpacingSpectrum, node_count, spacing_spectrum,
                       state_measures)
from .analysis import (AnalysisThresholds, BandPartition, SubdomainLabels,
                       Multiplet, MultipletReport, SpectralReport,
                       detect_bands, classify_states, delocalized_fraction,
                       detect_multiplets, eigenstate_map, analyze)
from .experiments import (Preset, PRESETS, RunConfig, RunManifest, SweepPoint,
                          OracleCheckResult, build_hamiltonian, run_config,
                          execute, preset_config, sweep_lf, run_sweep,
                          replay, load_manifest, oracle_check, random_instance,
                          resolve_selection)

__all__ = [name for name in dir() if not name.startswith("_")]
