import math

import numpy as np
import pytest

from iplsim.eigensolver import (
    DENSE_ORACLE_MAX_SITES,
    EigenSystem,
    SolverError,
    dense_oracle,
    eigenvalue_count_below,
    eigh_tridiagonal,
    node_count,
)
from iplsim.hamiltonian import CellParams, assemble, assemble_onsite
from iplsim.profiles import ProfileSpec, random_onsite_sequence, realize_profile
from iplsim.rng import SplitMix64
from iplsim.experiments import random_instance

PARAMS = CellParams(1.0, 2.0, 0.2)


def small_lattice(cells=16):
    spec = ProfileSpec("linear", cells, phi_start=0.3, phi_end=1.2)
    return assemble(realize_profile(spec), PARAMS)


class TestEighTridiagonal:
    def test_values_ascending_and_certified(self):
        eig = eigh_tridiagonal(small_lattice())
        assert np.all(np.diff(eig.values) >= 0)
        assert eig.residual_bound <= 1e-10
        assert eig.ortho_bound <= 1e-10

    def test_against_numpy_dense(self):
        h = small_lattice(20)
        ref = np.linalg.eigvalsh(h.dense())
        eig = eigh_tridiagonal(h)
        assert np.allclose(eig.values, ref, atol=1e-12)

    def test_sign_convention(self):
        eig = eigh_tridiagonal(small_lattice(15))
        for k in range(eig.size):
            col = eig.vectors[:, k]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0.0

    def test_sign_fix_reads_first_significant_component(self):
        from iplsim.eigensolver import _fix_signs

        vectors = np.array([[-1e-13, 0.0, -0.6, 0.0],
                            [0.6, -0.8, 0.8, -1e-13],
                            [-0.8, 0.6, 0.0, 1e-13]])
        fixed = _fix_signs(vectors)
        # columns 1 and 2 lead with a negative entry above the floor and are
        # negated exactly; column 0 leads positive past its sub-floor entry,
        # and column 3 has nothing above the floor
        assert np.array_equal(fixed, vectors * np.array([1.0, -1.0, -1.0, 1.0]))

    def test_single_site(self):
        h = assemble_onsite(random_onsite_sequence(1.0, 2.0, 2, seed=1), 0.3)
        eig = eigh_tridiagonal(h)
        assert eig.size == 2

    def test_rejects_nonfinite(self):
        h = small_lattice(4)
        bad = type(h)(diag=np.array([1.0, np.nan, 1.0, 2.0]), offdiag=h.offdiag[:3],
                      cells=2, params=h.params, profile=None)
        with pytest.raises(ValueError):
            eigh_tridiagonal(bad)

    def test_fully_degenerate_ladder_still_orthonormal(self):
        # eps = 0 decouples the cells: every eigenvalue is d1 or d2
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 40))
        h = assemble(grid, CellParams(1.0, 2.0, 0.0))
        eig = eigh_tridiagonal(h)
        assert eig.ortho_bound <= 1e-10
        assert np.allclose(np.sort(eig.values), [1.0] * 40 + [2.0] * 40, atol=1e-12)

    def test_vectors_are_frozen(self):
        eig = eigh_tridiagonal(small_lattice(6))
        with pytest.raises(ValueError):
            eig.vectors[0, 0] = 7.0


class TestDenseOracle:
    def test_agrees_with_production_solver(self):
        rng = SplitMix64(2024)
        for _ in range(3):
            h = random_instance(rng, max_sites=48)
            a = eigh_tridiagonal(h)
            b = dense_oracle(h)
            assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_size_guard(self):
        spec = ProfileSpec.linear(math.pi / 4, 1.0, DENSE_ORACLE_MAX_SITES // 2 + 1)
        h = assemble(realize_profile(spec), PARAMS)
        with pytest.raises(ValueError):
            dense_oracle(h)

    def test_oracle_is_certified_too(self):
        eig = dense_oracle(small_lattice(10))
        assert eig.residual_bound <= 1e-10
        assert eig.ortho_bound <= 1e-10


class TestNodeCount:
    def test_contract_examples(self):
        assert node_count(np.array([1.0, 1.0, 1.0]) / math.sqrt(3)) == 0
        assert node_count(np.array([1.0, -1.0]) / math.sqrt(2)) == 1

    def test_floor_masks_tail_noise(self):
        # alternating tail far below the floor must not register
        v = np.array([1.0, 0.5, 1e-12, -1e-12, 1e-12])
        assert node_count(v, amplitude_floor=1e-8) == 0
        assert node_count(v, amplitude_floor=0.0) == 2

    def test_floor_is_relative_to_peak(self):
        v = np.array([1e-3, -1e-3])        # small but the largest there is
        assert node_count(v, amplitude_floor=1e-8) == 1

    def test_sturm_law_descending_rank(self):
        # positive off-diagonals: the highest state is nodeless, then one node
        # per step downward
        h = assemble(realize_profile(ProfileSpec("linear", 12, phi_start=0.6, phi_end=0.6)), PARAMS)
        assert np.all(h.offdiag > 0)
        eig = eigh_tridiagonal(h)
        for j in range(eig.size):
            assert node_count(eig.vectors[:, j], amplitude_floor=0.0) == eig.size - 1 - j

    def test_block_counts_each_column(self):
        eig = eigh_tridiagonal(random_instance(SplitMix64(3), max_sites=60))
        counts = node_count(eig.vectors, amplitude_floor=0.0)
        assert counts.tolist() == [node_count(eig.vectors[:, j], amplitude_floor=0.0)
                                   for j in range(eig.size)]

    def test_sturm_law_on_a_random_instance(self):
        h = random_instance(SplitMix64(7), max_sites=120)
        eig = eigh_tridiagonal(h)
        for j in range(eig.size):
            assert node_count(eig.vectors[:, j], amplitude_floor=0.0) == eig.size - 1 - j


class TestEigenvalueCountBelow:
    def test_counts_whole_spectrum(self):
        h = small_lattice(12)
        eig = eigh_tridiagonal(h)
        assert eigenvalue_count_below(h, eig.values[0] - 0.1) == 0
        assert eigenvalue_count_below(h, eig.values[-1] + 0.1) == eig.size

    def test_matches_solver_at_interior_shifts(self):
        h = small_lattice(14)
        eig = eigh_tridiagonal(h)
        for shift in np.linspace(eig.values[0] - 0.05, eig.values[-1] + 0.05, 29):
            expected = int(np.sum(eig.values < shift))
            # skip knife-edge shifts: a count taken within float noise of an
            # eigenvalue may legitimately land on either side
            if np.min(np.abs(eig.values - shift)) < 1e-9:
                continue
            assert eigenvalue_count_below(h, float(shift)) == expected

    def test_monotone_in_shift(self):
        h = small_lattice(10)
        counts = [eigenvalue_count_below(h, s) for s in np.linspace(0.5, 2.7, 40)]
        assert counts == sorted(counts)


def test_eigensystem_requires_matching_shapes():
    values = np.array([1.0, 2.0])
    vectors = np.eye(2)
    eig = EigenSystem(values, vectors, residual_bound=0.0, ortho_bound=0.0)
    assert eig.size == 2
