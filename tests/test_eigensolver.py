import inspect
import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

import iplsim.eigensolver as eigensolver
from iplsim.eigensolver import (
    DENSE_ORACLE_MAX_SITES,
    GROUP_GAP_REL,
    STATE_BLOCK,
    EigenSystem,
    SolverError,
    _certify,
    _fix_signs,
    _scale,
    dense_oracle,
    eigh_tridiagonal,
    node_count,
)
from iplsim.hamiltonian import CellParams, TridiagonalHamiltonian, assemble, assemble_onsite
from iplsim.measures import state_measures
from iplsim.profiles import ProfileSpec, random_onsite_sequence, realize_profile
from iplsim.rng import SplitMix64
from iplsim.experiments import build_hamiltonian, preset_config, random_instance

from certificate import certificate_values
from memory import traced_peak
from sturm import eigenvalue_count_below

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
        fixed = _fix_signs(vectors.copy())
        # columns 1 and 2 lead with a negative entry above the floor and are
        # negated exactly; column 0 leads positive past its sub-floor entry,
        # and column 3 has nothing above the floor
        assert np.array_equal(fixed, vectors * np.array([1.0, -1.0, -1.0, 1.0]))

    def test_sign_fix_works_in_place(self):
        from iplsim.eigensolver import _fix_signs

        vectors = np.array([[-0.6, 0.8], [0.8, 0.6]])
        fixed = _fix_signs(vectors)
        assert fixed is vectors
        assert np.array_equal(vectors, [[0.6, 0.8], [-0.8, 0.6]])

    def test_single_site(self):
        h = assemble_onsite(random_onsite_sequence(1.0, 2.0, 2, seed=1), 0.3)
        eig = eigh_tridiagonal(h)
        assert eig.size == 2

    def test_rejects_nonfinite(self):
        h = small_lattice(4)
        bad = type(h)(diag=np.array([1.0, np.nan, 1.0, 2.0]), offdiag=h.offdiag[:3])
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


def random_operator(sites, seed):
    rng = np.random.default_rng(seed)
    return TridiagonalHamiltonian(rng.normal(size=sites), rng.normal(size=sites - 1))


class TestBlockedCertificate:
    """`_certify` walks STATE_BLOCK columns at a time; tests/certificate.py is its oracle."""

    @pytest.mark.parametrize("sites", [1, 2, 127, 128, 129, 300])
    def test_bounds_equal_the_whole_matrix_oracle(self, sites):
        h = random_operator(sites, seed=sites)
        eig = eigh_tridiagonal(h)
        oracle = certificate_values(h.diag, h.offdiag, eig.values, eig.vectors)
        assert (eig.residual_bound, eig.ortho_bound) == oracle

    @pytest.mark.parametrize("name", ["fig1", "fig13"])
    def test_preset_bounds_equal_the_whole_matrix_oracle(self, name, preset_eig):
        config, eig = preset_eig(name)
        h = build_hamiltonian(config)
        oracle = certificate_values(h.diag, h.offdiag, eig.values, eig.vectors)
        assert (eig.residual_bound, eig.ortho_bound) == oracle

    # 150 decoupled identical cells: 300 sites in blocks [0, 128), [128, 256)
    # and [256, 300); states 0-149 sit at d1 and 150-299 at d2, so mixing two
    # states of one level breaks orthonormality and leaves every residual small
    @pytest.mark.parametrize("defect, column, partner", [
        ("residual", 200, None), ("residual", 299, None),
        ("orthonormality", 140, 10), ("orthonormality", 299, 160),
    ], ids=["residual-middle-block", "residual-last-block",
            "overlap-middle-and-first-block", "overlap-last-and-middle-block"])
    def test_a_defect_in_any_block_is_caught(self, defect, column, partner):
        assert STATE_BLOCK == 128
        spec = ProfileSpec("linear", 150, phi_start=0.3, phi_end=0.3)
        h = assemble(realize_profile(spec), CellParams(1.0, 2.0, 0.0))
        eig = eigh_tridiagonal(h)
        values, vectors = eig.values.copy(), eig.vectors.copy()
        if partner is None:
            values[column] += 1e-6
        else:
            assert values[column] == pytest.approx(values[partner], abs=1e-14)
            vectors[:, column] += 1e-6 * vectors[:, partner]
        with pytest.raises(SolverError, match=defect):
            _certify(h.diag, h.offdiag, values, vectors)

    def test_peak_memory_is_the_vector_matrix_plus_block_scratch(self):
        h = small_lattice(500)
        eig, peak = traced_peak(eigh_tridiagonal, h)
        assert eig.size == 1000
        # the whole-matrix certificate held three (sites x states) buffers
        assert peak <= 1.25 * 8 * eig.size ** 2


class TestGroupedInverseIteration:
    """Blocks, sterf eigenvalues and one dstein call per spectral group."""

    @pytest.fixture(scope="class")
    def stebz(self):
        """LAPACK's whole-spectrum bisection plus inverse iteration, as the reference."""
        cache = {}

        def solve(name):
            if name not in cache:
                h = build_hamiltonian(preset_config(name))
                values, vectors = scipy.linalg.eigh_tridiagonal(h.diag, h.offdiag,
                                                                lapack_driver="stebz")
                cache[name] = (h, values, _fix_signs(vectors))
            return cache[name]

        return solve

    def test_decoupled_cells_keep_block_local_vectors(self):
        # eps = 0: twenty identical 2x2 cells, so each level is 20-fold; a
        # solver that mixed cells would spread the states over several cells
        spec = ProfileSpec("linear", 20, phi_start=0.3, phi_end=0.3)
        eig = eigh_tridiagonal(assemble(realize_profile(spec), CellParams(1.0, 2.0, 0.0)))
        ipr = state_measures(eig.vectors).ipr
        assert np.allclose(ipr, math.cos(0.3) ** 4 + math.sin(0.3) ** 4, rtol=0, atol=1e-12)
        for k in range(eig.size):
            assert np.count_nonzero(eig.vectors[:, k]) <= 2

    @pytest.mark.parametrize("name", ["fig1", "fig13", "fig6"])
    def test_eigenvalues_match_stebz(self, name, stebz, preset_eig):
        h, values, _ = stebz(name)
        _, eig = preset_eig(name)
        assert np.max(np.abs(eig.values - values)) <= 1e-13 * _scale(h.diag, h.offdiag)

    @pytest.mark.parametrize("name", ["fig1", "fig13", "fig6"])
    def test_isolated_vectors_match_stebz(self, name, stebz, preset_eig):
        h, values, vectors = stebz(name)
        _, eig = preset_eig(name)
        gap = np.diff(eig.values) > GROUP_GAP_REL * _scale(h.diag, h.offdiag)
        isolated = np.concatenate(([True], gap)) & np.concatenate((gap, [True]))
        assert isolated.sum() > eig.size // 4
        assert np.max(np.abs(eig.vectors[:, isolated] - vectors[:, isolated])) <= 1e-10

    def test_exact_multiplets_are_orthonormal(self, preset_eig):
        # fig13's three revolutions give exactly degenerate 3- and 6-fold
        # levels; dstein picks their basis, which must still be orthonormal
        config, eig = preset_eig("fig13")
        h = build_hamiltonian(config)
        scale = _scale(h.diag, h.offdiag)
        edges = np.flatnonzero(np.diff(eig.values) > 1e-13 * scale) + 1
        multiplets = [m for m in np.split(np.arange(eig.size), edges) if m.size > 1]
        assert max(m.size for m in multiplets) == 6
        for m in multiplets:
            block = eig.vectors[:, m]
            assert np.max(np.abs(block.T @ block - np.eye(m.size))) <= 1e-12

    @pytest.mark.parametrize("margin,groups", [(1.02, [1, 1, 1, 1]), (0.98, [2, 2])])
    def test_levels_are_grouped_at_the_cut(self, margin, groups, monkeypatch):
        # two decoupled cells whose levels d1 and d2 sit just above or just
        # below GROUP_GAP_REL * scale apart
        calls = []

        def recording(d, e, w, iblock, isplit):
            calls.append(w.size)
            return dstein(d, e, w, iblock, isplit)

        dstein = eigensolver.dstein
        monkeypatch.setattr(eigensolver, "dstein", recording)
        grid = realize_profile(ProfileSpec("linear", 2, phi_start=0.5, phi_end=0.5))
        params = CellParams(1.0, 1.0 + margin * GROUP_GAP_REL, 0.0)
        h = assemble(grid, params)
        spacing = params.d2 - params.d1
        assert (spacing > GROUP_GAP_REL * _scale(h.diag, h.offdiag)) == (margin > 1.0)
        eig = eigh_tridiagonal(h)
        assert calls == groups
        assert eig.ortho_bound <= 1e-10
        assert np.allclose(eig.values, [1.0, 1.0, params.d2, params.d2], rtol=0, atol=1e-15)

    def test_single_site_operator(self):
        one = TridiagonalHamiltonian(diag=np.array([0.7]), offdiag=np.array([]))
        eig = eigh_tridiagonal(one)
        assert eig.values.tolist() == [0.7]
        assert eig.vectors.tolist() == [[1.0]]


def mp_ground_state(h, guess: float, dps: int = 60) -> tuple[float, np.ndarray]:
    """Ground state of a tridiagonal operator to about dps digits, by mpmath.

    Sturm bisection brackets the lowest eigenvalue from below, so T - lo*I is
    positive definite and its LDL^T factorization needs no pivoting: two
    O(n) inverse-iteration solves with that shift give the vector.
    """
    with mpmath.workdps(dps):
        d = [mpmath.mpf(float(x)) for x in h.diag]
        e = [mpmath.mpf(float(x)) for x in h.offdiag]

        def pivots(shift):
            piv = [d[0] - shift]
            for i in range(1, len(d)):
                piv.append(d[i] - shift - e[i - 1] ** 2 / piv[-1])
            return piv

        def below(shift):
            return sum(p < 0 for p in pivots(shift))

        lo, hi = mpmath.mpf(guess) - mpmath.mpf("1e-9"), mpmath.mpf(guess) + mpmath.mpf("1e-9")
        assert below(lo) == 0 and below(hi) == 1
        while hi - lo > mpmath.mpf(10) ** (5 - dps):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) == 0 else (lo, mid)
        piv = pivots(lo)
        x = [mpmath.mpf(1)] * len(d)
        for _ in range(2):
            for i in range(1, len(d)):
                x[i] -= e[i - 1] / piv[i - 1] * x[i - 1]
            x = [xi / p for xi, p in zip(x, piv)]
            for i in range(len(d) - 2, -1, -1):
                x[i] -= e[i] / piv[i] * x[i + 1]
            norm = mpmath.sqrt(mpmath.fsum(xi * xi for xi in x))
            x = [xi / norm for xi in x]
        lead = next(xi for xi in x if abs(xi) > eigensolver.SIGN_FLOOR)
        return float(lo), np.array([float(xi if lead > 0 else -xi) for xi in x])


class TestTailOracle:
    """Componentwise accuracy of a localized ground state against a 60-digit reference."""

    @staticmethod
    def ground_state_error(cells):
        # fig7_8's one-sided grid, started nearer phase 0 for a steeper tail
        spec = ProfileSpec("linear", cells, phi_start=0.05, phi_end=math.pi / 4)
        h = assemble(realize_profile(spec), CellParams(1.0, 2.0, 0.3))
        eig = eigh_tridiagonal(h)
        value, ref = mp_ground_state(h, float(eig.values[0]))
        assert abs(eig.values[0] - value) <= 1e-15 * _scale(h.diag, h.offdiag)
        counted = np.abs(ref) > 1e-250
        rel = np.abs(eig.vectors[counted, 0] - ref[counted]) / np.abs(ref[counted])
        return float(np.min(np.abs(ref))), float(np.max(rel))

    def test_tail_to_1e_minus_21(self):
        tail, rel = self.ground_state_error(50)
        assert tail < 1e-20
        assert rel <= 1e-8

    @pytest.mark.xfail(strict=True, reason=(
        "dstein stops iterating once the vector norm has converged, which leaves an "
        "absolute error floor near 1e-45 in the tail: relative error 4e-4 at the "
        "2.7e-42 end component (2.6e-5 with the former stebz route); one more "
        "inverse-iteration step brings every component to 1e-14"))
    def test_tail_below_1e_minus_30(self):
        tail, rel = self.ground_state_error(100)
        assert tail < 1e-30
        assert rel <= 1e-8


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


def symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m + m.T


def theta_guard_matrix():
    # the first round rotates (1, 2) and leaves couplings near 1e-160 to site
    # 0, whose rotations then have |theta| near 1e160, past the 1e150 guard
    return np.array([[0.0, 1e-160, 0.0], [1e-160, 1.0, 1.0], [0.0, 1.0, 3.0]])


def degenerate_matrix(n=9):
    # 2 I plus a rank-1 term: eigenvalue 2 with multiplicity n - 1, and equal
    # diagonals, so the first rotations have theta = 0
    u = np.ones(n)
    return 2.0 * np.eye(n) + np.outer(u, u)


def assert_eigensystem(a, values, vectors, tol=1e-10):
    scale = max(np.linalg.norm(a), 1e-300)
    assert np.max(np.abs(np.sort(values) - np.linalg.eigvalsh(a))) <= tol * scale
    assert np.max(np.abs(a @ vectors - vectors * values)) <= tol * scale
    assert np.max(np.abs(vectors.T @ vectors - np.eye(len(values)))) <= tol


def lines_run(func, *args):
    """The line numbers of `func` executed while calling it."""
    hit = set()

    def tracer(frame, event, arg):
        if frame.f_code is not func.__code__:
            return None
        if event == "line":
            hit.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return hit


class TestJacobi:
    """Edge cases of the round-robin Jacobi sweep behind the dense oracle."""

    def test_single_site(self):
        values, vectors = eigensolver._jacobi(np.array([[3.5]]))
        assert values.tolist() == [3.5]
        assert vectors.tolist() == [[1.0]]

    def test_zero_matrix(self):
        values, vectors = eigensolver._jacobi(np.zeros((5, 5)))
        assert values.tolist() == [0.0] * 5
        assert np.array_equal(vectors, np.eye(5))

    def test_two_sites(self):
        a = np.array([[1.0, 2.0], [2.0, -3.0]])
        values, vectors = eigensolver._jacobi(a)
        assert np.sort(values) == pytest.approx([-1.0 - math.sqrt(8.0), -1.0 + math.sqrt(8.0)],
                                                abs=1e-14)
        assert_eigensystem(a, values, vectors)

    @pytest.mark.parametrize("n", [3, 5, 7, 31])
    def test_odd_sizes_use_the_bye(self, n):
        a = symmetric(n, n)
        assert_eigensystem(a, *eigensolver._jacobi(a))

    def test_input_is_not_modified(self):
        a = symmetric(6, 0)
        kept = a.copy()
        eigensolver._jacobi(a)
        assert np.array_equal(a, kept)

    def test_diagonal_matrix_is_returned_as_is(self):
        a = np.diag([3.0, -1.0, 2.0, 0.5])
        values, vectors = eigensolver._jacobi(a)
        assert values.tolist() == [3.0, -1.0, 2.0, 0.5]
        assert np.array_equal(vectors, np.eye(4))

    @pytest.mark.parametrize("coupled", [[(0, 1), (2, 3)], [(0, 1)], [(1, 3)]])
    def test_uncoupled_pairs_are_left_alone(self, coupled):
        # n = 4 has rounds {(0,3), (1,2)}, {(0,2), (1,3)}, {(0,1), (2,3)}: whole
        # rounds, or single pairs of a round, have a zero coupling
        a = np.diag([1.0, 2.0, 4.0, 8.0])
        for p, q in coupled:
            a[p, q] = a[q, p] = 0.7
        values, vectors = eigensolver._jacobi(a)
        assert_eigensystem(a, values, vectors)
        touched = {i for pair in coupled for i in pair}
        for k in range(4):
            if k not in touched:
                assert values[k] == a[k, k]
        # a vector never leaves the block of the pair it was rotated in
        assert np.array_equal(vectors != 0.0, (a != 0.0) | np.eye(4, dtype=bool))

    def test_exactly_degenerate_spectrum(self):
        a = degenerate_matrix()
        values, vectors = eigensolver._jacobi(a)
        assert np.sort(values) == pytest.approx([2.0] * 8 + [11.0], abs=1e-13)
        assert_eigensystem(a, values, vectors)

    def test_theta_guard(self):
        a = theta_guard_matrix()
        guard = next(number for number, line in enumerate(
            inspect.getsourcelines(eigensolver._jacobi)[0],
            start=eigensolver._jacobi.__code__.co_firstlineno) if "t[big] =" in line)
        assert guard in lines_run(eigensolver._jacobi, a)
        assert_eigensystem(a, *eigensolver._jacobi(a))

    def test_sweep_cap_raises(self):
        with pytest.raises(SolverError, match="sweep cap"):
            eigensolver._jacobi(symmetric(12, 1), max_sweeps=1)

    @pytest.mark.parametrize("n", [4, 17, 64, 129, DENSE_ORACLE_MAX_SITES])
    def test_matches_eigvalsh_on_dense_matrices(self, n):
        a = symmetric(n, 100 + n)
        assert_eigensystem(a, *eigensolver._jacobi(a))

    def test_no_floating_point_warnings(self):
        rng = SplitMix64(0xA5EED)   # the first instances of acceptance criterion 2
        decoupled = ProfileSpec("linear", 20, phi_start=0.3, phi_end=0.3)
        lattices = [random_instance(rng, max_sites=64) for _ in range(5)]
        lattices.append(assemble(realize_profile(decoupled), CellParams(1.0, 2.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h in lattices:
                dense_oracle(h)
            for a in (degenerate_matrix(), theta_guard_matrix(), np.zeros((3, 3))):
                eigensolver._jacobi(a)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 33, 64, 65])
def test_round_robin_schedule(n):
    rounds = eigensolver._round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for p, q in rounds:
        assert len(set(p) | set(q)) == 2 * len(p)          # disjoint within the round
        assert len(p) == n // 2
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == list(itertools.combinations(range(n), 2))


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
    assert EigenSystem(values, np.ones((5, 2)), 0.0, 0.0).vectors.shape == (5, 2)
    mismatches = [(np.ones(3), np.eye(2)), (np.ones(2), np.ones(2)),
                  (np.ones((2, 1)), np.eye(2)), (np.ones(2), np.ones((2, 2, 1)))]
    for bad_values, bad_vectors in mismatches:
        with pytest.raises(ValueError, match="one vector column per value"):
            EigenSystem(bad_values, bad_vectors, residual_bound=0.0, ortho_bound=0.0)
