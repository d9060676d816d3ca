import ctypes
import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import fields
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dstein

import iplsim.analysis as analysis
import iplsim.eigensolver as eigensolver
import iplsim.measures as measures
from iplsim.eigensolver import (
    DENSE_ORACLE_MAX_SITES,
    GROUP_GAP_REL,
    ORTHO_CAP,
    ORTHO_WINDOW_REL,
    STATE_BLOCK,
    EigenSystem,
    SolverError,
    _certify,
    _fix_signs,
    _scale,
    dense_oracle,
    eigh_tridiagonal,
    share,
)
from iplsim.hamiltonian import CellParams, TridiagonalHamiltonian, assemble, assemble_onsite
from iplsim.measures import state_measures
from iplsim.profiles import ProfileSpec, random_onsite_sequence, realize_profile
from iplsim.rng import SplitMix64
from iplsim.experiments import (DEFAULT_CONFIG, PRESETS, build_hamiltonian, configure,
                                preset_config, random_instance, run_config, sweep_lf)

import jacobi_reference
from certificate import certificate_values
from memory import traced_peak
from nodes import sign_changes
from sturm import eigenvalue_count_below
from vectors import gather

PARAMS = CellParams(1.0, 2.0, 0.2)
# the C type of the solver's LAPACK integers (int64 from numpy's OpenBLAS, int32 from scipy)
lapack_int = np.ctypeslib.as_ctypes_type(eigensolver._LAPACK_INT)


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
        eig, vectors = gather(small_lattice(15))
        for k in range(eig.size):
            col = vectors[:, k]
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

    def test_rejects_a_scale_beyond_the_float_range(self):
        # finite entries whose scale max|d| + 2 max|e| overflows would make
        # every certificate cap infinite
        h = TridiagonalHamiltonian(np.array([1e308, 1.5e308]), np.array([1e308]))
        with pytest.raises(ValueError, match="float range"):
            eigh_tridiagonal(h)

    def test_fully_degenerate_ladder_still_orthonormal(self):
        # eps = 0 decouples the cells: every eigenvalue is d1 or d2
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 40))
        h = assemble(grid, CellParams(1.0, 2.0, 0.0))
        eig = eigh_tridiagonal(h)
        assert eig.ortho_bound <= 1e-10
        assert np.allclose(np.sort(eig.values), [1.0] * 40 + [2.0] * 40, atol=1e-12)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_huge_and_tiny_energies_solve_like_the_unscaled_lattice(self, factor):
        # DSTEBZ's split rule squares the entries: unscaled, it would split every
        # bond at either factor, and dstein's work vectors overflow above 1e153
        h = small_lattice(20)
        eig, vectors = gather(h)
        scaled, scaled_vectors = gather(TridiagonalHamiltonian(factor * h.diag,
                                                               factor * h.offdiag))
        error = np.max(np.abs(scaled.values / factor - eig.values))
        assert error <= 1e-13 * np.max(np.abs(eig.values))
        assert np.allclose(scaled_vectors, vectors, rtol=0.0, atol=1e-12)
        assert scaled.residual_bound <= 1e-14 * factor

    def test_values_are_frozen(self):
        eig = eigh_tridiagonal(small_lattice(6))
        with pytest.raises(ValueError):
            eig.values[0] = 7.0


def random_operator(sites, seed):
    rng = np.random.default_rng(seed)
    return TridiagonalHamiltonian(rng.normal(size=sites), rng.normal(size=sites - 1))


def assert_bounds_hold_against_the_oracle(h, eig, vectors):
    """residual_bound bit-equal to the whole-matrix oracle; ortho_bound at least its Gram defect.

    Where the window from the first block's top level reaches the highest
    level, every pair is measured and ortho_bound is that defect, bit for bit.
    """
    residual, ortho = certificate_values(h.diag, h.offdiag, eig.values, vectors)
    assert eig.residual_bound == residual
    assert ortho <= eig.ortho_bound <= ORTHO_CAP
    window = ORTHO_WINDOW_REL * _scale(h.diag, h.offdiag)
    if eig.values[-1] < eig.values[min(STATE_BLOCK, eig.size) - 1] + window:
        assert eig.ortho_bound == ortho


class TestBlockedCertificate:
    """`_certify` walks STATE_BLOCK columns at a time; tests/certificate.py is its oracle."""

    @pytest.mark.parametrize("sites", [1, 2, 127, 128, 129, 300])
    def test_bounds_equal_the_whole_matrix_oracle(self, sites):
        h = random_operator(sites, seed=sites)
        assert_bounds_hold_against_the_oracle(h, *gather(h))

    @pytest.mark.parametrize("name, overrides", [
        *(pytest.param(name, {}, id=name) for name in PRESETS),
        pytest.param("fig6", {"sites": 1802}, id="fig6-1802-sites"),
    ])
    def test_preset_bounds_equal_the_whole_matrix_oracle(self, name, overrides, preset_eig):
        config, eig, vectors = preset_eig(name, **overrides)
        assert_bounds_hold_against_the_oracle(build_hamiltonian(config), eig, vectors)
        # headroom: the far-pair bound stays a decade under the cap
        assert eig.ortho_bound <= ORTHO_CAP / 10

    @pytest.mark.parametrize("source", ["fig13", "narrow-300-sites"])
    def test_signs_not_fixed_yet_leave_every_bit_in_place(self, source, preset_eig):
        # a block's Gram panel reads the columns past it before their signs
        # are fixed; flipping any of them negates those products exactly
        if source == "fig13":
            config, eig, vectors = preset_eig(source)
            h = build_hamiltonian(config)
        else:
            wide = random_operator(300, seed=300)
            h = TridiagonalHamiltonian(10.0 + 1e-3 * wide.diag, 1e-3 * wide.offdiag)
            eig, vectors = gather(h)
        assert eig.size > 2 * STATE_BLOCK
        rows = vectors.T.copy()  # the solver's (states x sites) layout
        later = STATE_BLOCK + 10
        if source == "narrow-300-sites":
            # every level lies in every window, so the first block's panel
            # measures this overlap with a state of the second block, and the
            # overlap is the measured Gram defect
            rows[later] += 1e-12 * rows[10]
        fixed = rows.copy()  # _certify fixes the signs in place
        want = _certify(h.diag, h.offdiag, eig.values, fixed.T)
        flipped = np.random.default_rng(eig.size).random(eig.size) < 0.5
        flipped[later] = True
        assert not flipped.all()
        rows[flipped] *= -1.0
        got = _certify(h.diag, h.offdiag, eig.values, rows.T)
        assert got.residual_bound == want.residual_bound
        assert got.ortho_bound == want.ortho_bound
        assert np.array_equal(rows, fixed)
        if source == "narrow-300-sites":
            assert want.ortho_bound > 0.5e-12
        else:
            assert (want.residual_bound, want.ortho_bound) == (eig.residual_bound, eig.ortho_bound)
            assert np.array_equal(fixed.T, vectors)

    def test_gram_panels_stop_at_the_window(self):
        # 1000 sites whose two bands span about 1.3 scale: no block's window
        # holds more than 188 columns, so the largest Gram panel is well under
        # the (block x sites) one that a panel running to the last column makes
        h = small_lattice(500)
        eig, vectors = gather(h)
        _, peak = traced_peak(_certify, h.diag, h.offdiag, eig.values, vectors.copy())
        assert peak <= 0.5 * 8 * STATE_BLOCK * eig.size

    def test_the_window_covers_every_pair_of_a_narrow_spectrum(self):
        # 300 sites whose levels all lie within the window: the panels run to
        # the last column and ortho_bound is the measured Gram defect
        h = random_operator(300, seed=300)
        narrow = TridiagonalHamiltonian(10.0 + 1e-3 * h.diag, 1e-3 * h.offdiag)
        eig, vectors = gather(narrow)
        window = ORTHO_WINDOW_REL * _scale(narrow.diag, narrow.offdiag)
        assert eig.values[-1] - eig.values[0] < window
        assert eig.ortho_bound == certificate_values(narrow.diag, narrow.offdiag,
                                                     eig.values, vectors)[1]

    # 150 decoupled identical cells: 300 sites in blocks [0, 128), [128, 256)
    # and [256, 300); states 0-149 sit at d1 and 150-299 at d2, so mixing two
    # states of one level breaks orthonormality and leaves every residual small.
    # States 10 and 160 lie a gap of 1 apart, beyond the window: only the
    # far-pair bound sees their overlap, and 1.5e-10 of it stays under the
    # residual cap (2e-10 here) while it breaks ORTHO_CAP.
    @pytest.mark.parametrize("defect, column, partner, amount", [
        ("residual", 200, None, 1e-6), ("residual", 299, None, 1e-6),
        ("orthonormality", 140, 10, 1e-6), ("orthonormality", 299, 160, 1e-6),
        ("orthonormality", 160, 10, 1.5e-10),
    ], ids=["residual-middle-block", "residual-last-block",
            "overlap-middle-and-first-block", "overlap-last-and-middle-block",
            "far-pair-overlap-under-the-residual-cap"])
    def test_a_defect_in_any_block_is_caught(self, defect, column, partner, amount):
        assert STATE_BLOCK == 128
        spec = ProfileSpec("linear", 150, phi_start=0.3, phi_end=0.3)
        h = assemble(realize_profile(spec), CellParams(1.0, 2.0, 0.0))
        eig, vectors = gather(h)
        values, vectors = eig.values.copy(), vectors.copy()
        if partner is None:
            values[column] += amount
        else:
            # the partner is on the same level or beyond the window
            gap = values[column] - values[partner]
            window = ORTHO_WINDOW_REL * _scale(h.diag, h.offdiag)
            assert gap == pytest.approx(0.0, abs=1e-14) or gap >= window
            vectors[:, column] += amount * vectors[:, partner]
        with pytest.raises(SolverError, match=defect):
            _certify(h.diag, h.offdiag, values, vectors)

    def test_nan_vectors_fail_the_certificate(self):
        h = small_lattice(8)
        eig, solved = gather(h)
        for column in (0, eig.size - 1):
            vectors = solved.copy()
            vectors[3, column] = np.nan
            with pytest.raises(SolverError, match="not finite"):
                _certify(h.diag, h.offdiag, eig.values, vectors)

    def test_trace_drift_above_the_cap_fails_the_certificate(self, monkeypatch):
        h = random_operator(16, seed=16)
        eig, vectors = gather(h)
        # the values' sum misses the diagonal's by rounding, far under the cap
        assert float(np.sum(eig.values)) != float(np.sum(h.diag))
        monkeypatch.setattr(eigensolver, "TRACE_REL_CAP", 0.0)
        with pytest.raises(SolverError, match="trace drift"):
            _certify(h.diag, h.offdiag, eig.values, vectors.copy())

    def test_solver_threads_size_their_buffers_by_their_own_slab(self, monkeypatch):
        # the default lattice at 1802 sites holds a spectral group of 200 states
        h = build_hamiltonian(configure(DEFAULT_CONFIG, {"sites": 1802}))
        monkeypatch.setattr(eigensolver, "_WORKERS", 8)
        eig, peak = traced_peak(eigh_tridiagonal, h)
        # eight Z buffers each sized by the whole operator's largest group held
        # 0.96 x 8N^2; only the slab that holds that group sizes them so here
        assert peak <= 0.4 * 8 * eig.size ** 2

    def test_sites_outside_a_groups_block_read_zero(self):
        # dstein writes only each group's block of sites, so the window starts zero-filled
        _, vectors = gather(TridiagonalHamiltonian(np.arange(4.0), np.zeros(3)))
        assert np.array_equal(vectors, np.eye(4))


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
        eig, vectors = gather(assemble(realize_profile(spec), CellParams(1.0, 2.0, 0.0)))
        ipr = state_measures(vectors.T).ipr
        assert np.allclose(ipr, math.cos(0.3) ** 4 + math.sin(0.3) ** 4, rtol=0, atol=1e-12)
        for k in range(eig.size):
            assert np.count_nonzero(vectors[:, k]) <= 2

    @pytest.mark.parametrize("name", ["fig1", "fig13", "fig6"])
    def test_eigenvalues_match_stebz(self, name, stebz, preset_eig):
        h, values, _ = stebz(name)
        _, eig, _ = preset_eig(name)
        assert np.max(np.abs(eig.values - values)) <= 1e-13 * _scale(h.diag, h.offdiag)

    @pytest.mark.parametrize("name", ["fig1", "fig13", "fig6"])
    def test_isolated_vectors_match_stebz(self, name, stebz, preset_eig):
        h, values, want = stebz(name)
        _, eig, vectors = preset_eig(name)
        gap = np.diff(eig.values) > GROUP_GAP_REL * _scale(h.diag, h.offdiag)
        isolated = np.concatenate(([True], gap)) & np.concatenate((gap, [True]))
        assert isolated.sum() > eig.size // 4
        assert np.max(np.abs(vectors[:, isolated] - want[:, isolated])) <= 1e-10

    def test_exact_multiplets_are_orthonormal(self, preset_eig):
        # fig13's three revolutions give exactly degenerate 3- and 6-fold
        # levels; dstein picks their basis, which must still be orthonormal
        config, eig, vectors = preset_eig("fig13")
        h = build_hamiltonian(config)
        scale = _scale(h.diag, h.offdiag)
        edges = np.flatnonzero(np.diff(eig.values) > 1e-13 * scale) + 1
        multiplets = [m for m in np.split(np.arange(eig.size), edges) if m.size > 1]
        assert max(m.size for m in multiplets) == 6
        for m in multiplets:
            block = vectors[:, m]
            assert np.max(np.abs(block.T @ block - np.eye(m.size))) <= 1e-12

    @pytest.mark.parametrize("margin,groups", [(1.02, [1, 1, 1, 1]), (0.98, [2, 2])])
    def test_levels_are_grouped_at_the_cut(self, margin, groups, monkeypatch):
        # two decoupled cells whose levels d1 and d2 sit just above or just
        # below GROUP_GAP_REL * scale apart
        calls = []

        def recording(*args):
            calls.append(lapack_int.from_address(args[3]).value)  # M
            kernel(*args)

        kernel = eigensolver._dstein
        monkeypatch.setattr(eigensolver, "_dstein", recording)
        grid = realize_profile(ProfileSpec("linear", 2, phi_start=0.5, phi_end=0.5))
        params = CellParams(1.0, 1.0 + margin * GROUP_GAP_REL, 0.0)
        h = assemble(grid, params)
        spacing = params.d2 - params.d1
        assert (spacing > GROUP_GAP_REL * _scale(h.diag, h.offdiag)) == (margin > 1.0)
        eig = eigh_tridiagonal(h)
        assert sorted(calls) == groups
        assert eig.ortho_bound <= 1e-10
        assert np.allclose(eig.values, [1.0, 1.0, params.d2, params.d2], rtol=0, atol=1e-15)

    def test_single_site_operator(self):
        one = TridiagonalHamiltonian(diag=np.array([0.7]), offdiag=np.array([]))
        eig, vectors = gather(one)
        assert eig.values.tolist() == [0.7]
        assert vectors.tolist() == [[1.0]]


def glued_wilkinson(half: int, copies: int, glue: float) -> TridiagonalHamiltonian:
    """`copies` Wilkinson W(2 half + 1)+ matrices joined by off-diagonal entries `glue`:
    every level of one copy comes `copies` times, split only as far as the glue splits it."""
    diag = np.tile(np.abs(np.arange(-half, half + 1.0)), copies)
    offdiag = np.tile(np.append(np.ones(2 * half), glue), copies)[:-1]
    return TridiagonalHamiltonian(diag, offdiag)


def graded(n: int = 40) -> TridiagonalHamiltonian:
    """d_k = 10^-k and e_k = 10^-(k + 1/2): entries that fall over 40 decades."""
    k = np.arange(n, dtype=float)
    return TridiagonalHamiltonian(10.0 ** -k, 10.0 ** -(k[:-1] + 0.5))


def clement(n: int = 400) -> TridiagonalHamiltonian:
    """Zero diagonal and e_k = sqrt(k (n - k)): the integer levels -(n-1), -(n-3), ..., n-1."""
    k = np.arange(1.0, n)
    return TridiagonalHamiltonian(np.zeros(n), np.sqrt(k * (n - k)))


def uniform_chain(n: int = 3000) -> TridiagonalHamiltonian:
    return TridiagonalHamiltonian(np.zeros(n), np.ones(n - 1))


HARD_TRIDIAGONALS = {
    "glued-W21-x10-1e-14": lambda: glued_wilkinson(10, 10, 1e-14),
    "glued-W21-x10-1e-8": lambda: glued_wilkinson(10, 10, 1e-8),
    "glued-W201-x20-1e-14": lambda: glued_wilkinson(100, 20, 1e-14),
    "glued-W201-x20-1e-8": lambda: glued_wilkinson(100, 20, 1e-8),
    "glued-W21-x2-1e-14": lambda: glued_wilkinson(10, 2, 1e-14),
    "graded-40": graded,
    "clement-400": clement,
    "uniform-chain-3000": uniform_chain,
}


class TestHardTridiagonals:
    """Operators that break careless tridiagonal solvers: clusters of near-equal
    levels (glued Wilkinson), entries over many decades (graded), evenly spaced
    large levels (Clement) and a long uniform chain. A change to the solver's
    kernel must keep every case certified and on scipy's values, which come
    from LAPACK's MRRR (stemr), not from the solver's own QL/QR (sterf); its
    bisection (stebz) gives the same values but takes 3 s on the chain alone."""

    @pytest.mark.parametrize("name", list(HARD_TRIDIAGONALS))
    def test_certified_on_scipys_eigenvalues(self, name):
        h = HARD_TRIDIAGONALS[name]()
        eig = eigh_tridiagonal(h)  # raises SolverError if the certificate fails
        scale = _scale(h.diag, h.offdiag)
        assert eig.residual_bound <= eigensolver.RESIDUAL_REL_CAP * scale
        assert eig.ortho_bound <= ORTHO_CAP
        reference = scipy.linalg.eigvalsh_tridiagonal(h.diag, h.offdiag)
        assert np.max(np.abs(eig.values - reference)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", list(HARD_TRIDIAGONALS))
    def test_every_even_palindrome_is_solved_as_two_sectors(self, name, unfolds):
        # glued copies of one Wilkinson matrix, Clement's matrix and the
        # uniform chain are their own mirror images; the graded one is not
        eigh_tridiagonal(HARD_TRIDIAGONALS[name]())
        assert bool(unfolds) == (name != "graded-40")


@pytest.fixture
def unfolds(monkeypatch):
    """The state count of every sector solve `eigh_tridiagonal` unfolds."""
    calls = []
    unfold = eigensolver._unfold

    def recording(rows, odd):
        calls.append(rows.shape[0])
        unfold(rows, odd)

    monkeypatch.setattr(eigensolver, "_unfold", recording)
    return calls


def palindrome(half=20, middle=2.0, seed=7):
    """An even mirror-symmetric operator of 2 half sites, with d_0 = 1 and the given middle
    bond; every other |entry| is below 1.5, so with middle = 2 its scale is 5."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, half), rng.uniform(-1.5, 1.5, half - 1)
    a[0] = 1.0
    return TridiagonalHamiltonian(np.concatenate((a, a[::-1])),
                                  np.concatenate((b, [middle], b[::-1])))


def sub_floor_states(values):
    """Mask of the states in a cluster of levels spaced at or below the rounding floor."""
    close = np.diff(values) <= eigensolver.rounding_floor(values)
    return np.concatenate((close, [False])) | np.concatenate(([False], close))


class TestMirrorSectors:
    """Even palindromes solved as their even and odd sectors, then unfolded."""

    @pytest.mark.parametrize("asymmetry, folds", [(2.0**-48, True), (1e-12, False)],
                             ids=["4-ulps", "1e-12"])
    def test_four_ulps_of_asymmetry_fold_and_1e_minus_12_does_not(self, asymmetry, folds,
                                                                   unfolds):
        h = palindrome()
        assert _scale(h.diag, h.offdiag) == 5.0
        assert 2.0**-48 == eigensolver.DEGENERACY_ULPS * np.spacing(5.0)
        diag = h.diag.copy()
        diag[0] += asymmetry
        # certified against the asymmetric operator, as it is
        eig = eigh_tridiagonal(TridiagonalHamiltonian(diag, h.offdiag))
        assert unfolds == ([h.sites] if folds else [])
        reference = scipy.linalg.eigvalsh_tridiagonal(diag, h.offdiag)
        assert np.max(np.abs(eig.values - reference)) <= 1e-13 * 5.0

    @pytest.mark.parametrize("name", ["fig1", "fig4"])
    def test_sector_vectors_are_mirror_even_or_odd_bit_for_bit(self, name, preset_eig):
        _, eig, vectors = preset_eig(name)
        rotated = sub_floor_states(eig.values)
        assert rotated.sum() == (0 if name == "fig1" else 2)
        v = vectors[:, ~rotated]
        even = np.all(v[::-1] == v, axis=0)
        odd = np.all(v[::-1] == -v, axis=0)
        assert np.all(even ^ odd)
        assert even.sum() == odd.sum() == (eig.size - rotated.sum()) // 2

    def test_an_odd_palindrome_is_solved_whole(self, unfolds):
        h = palindrome()
        odd = TridiagonalHamiltonian(np.insert(h.diag, 20, 0.5), np.insert(h.offdiag, 20, 2.0))
        eig = eigh_tridiagonal(odd)
        assert unfolds == []
        reference = scipy.linalg.eigvalsh_tridiagonal(odd.diag, odd.offdiag)
        assert np.max(np.abs(eig.values - reference)) <= 1e-13 * 5.0

    def test_two_sites_are_two_one_site_sectors(self, unfolds):
        eig, vectors = gather(TridiagonalHamiltonian(np.array([0.3, 0.3]), np.array([0.5])))
        assert unfolds == [2]
        # the sectors are d -+ e; their one-site vectors unfold to [1, -+1]/sqrt2
        assert eig.values.tolist() == [0.3 - 0.5, 0.3 + 0.5]
        assert np.array_equal(vectors, np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0))

    def test_a_zero_middle_bond_gives_one_sided_pairs(self, unfolds):
        h = palindrome(middle=0.0)
        eig, vectors = gather(h)
        assert unfolds == [40]
        # both sectors are the left half's block: every level twice, to the bit
        left = eigh_tridiagonal(TridiagonalHamiltonian(h.diag[:20], h.offdiag[:19]))
        assert np.array_equal(eig.values, np.repeat(left.values, 2))
        # each exact pair is rotated back into the two halves, left one first
        first, second = vectors[:, 0::2], vectors[:, 1::2]
        assert np.max(np.abs(first[20:])) <= 1e-15 and np.max(np.abs(second[:20])) <= 1e-15

    @pytest.mark.parametrize("factor", [2.0**300, 2.0**-300])
    def test_scales_beyond_2_to_the_255_fold_like_the_unit_operator(self, factor, unfolds):
        h = palindrome(middle=0.7)
        unit = math.ldexp(1.0, math.frexp(_scale(h.diag, h.offdiag))[1] - 1)
        base, base_vectors = gather(TridiagonalHamiltonian(h.diag / unit, h.offdiag / unit))
        scaled, scaled_vectors = gather(TridiagonalHamiltonian(h.diag / unit * factor,
                                                               h.offdiag / unit * factor))
        assert unfolds == [40, 40]
        assert np.array_equal(scaled.values / factor, base.values)
        assert np.array_equal(scaled_vectors, base_vectors)


class TestSubFloorBasis:
    """Clusters of levels below the rounding floor get the site-index eigenbasis."""

    def test_rounding_floor_has_one_owner(self):
        assert measures.rounding_floor is eigensolver.rounding_floor

    def test_a_sub_floor_pair_comes_out_one_sided_in_ascending_com(self, preset_eig):
        # fig4's one sub-floor pair: an even and an odd sector state, which
        # the rotation turns into a state on each half of the lattice
        _, eig, vectors = preset_eig("fig4")
        pair = np.flatnonzero(sub_floor_states(eig.values))
        assert pair.size == 2
        half = eig.size // 2
        v = vectors[:, pair]
        left = np.sum(v[:half] ** 2, axis=0)
        assert left[0] >= 1.0 - 1e-12 and left[1] <= 1e-12
        com = state_measures(v.T).com
        assert com[0] < com[1]

    @pytest.mark.parametrize("lf, delocalized", [(None, 38 / 302), (0.5, 42 / 1002)],
                             ids=["fig4", "sweep-lf-0.5"])
    def test_the_readout_is_the_whole_lattice_solves(self, lf, delocalized):
        # each of these lattices has one sub-floor pair; left as the sector
        # solve gives it, an even and an odd two-sided state, both count as
        # delocalized (0.132450 on fig4, 0.043912 at lf = 0.5)
        if lf is None:
            fraction = analysis.delocalized_fraction(run_config(preset_config("fig4"))[2].labels)
        else:
            [point] = sweep_lf([lf], preset_config("fig4_inset_sweep"))
            fraction = point.fraction
        assert fraction == delocalized

    def test_every_cluster_comes_out_in_ascending_com(self, preset_eig):
        # fig13 is not a palindrome: its exact 3- and 6-fold levels are
        # dstein's groups, rotated as they come
        _, eig, vectors = preset_eig("fig13")
        rotated = sub_floor_states(eig.values)
        assert rotated.sum() > 100
        com = state_measures(vectors.T).com
        close = np.diff(eig.values) <= eigensolver.rounding_floor(eig.values)
        assert np.all(np.diff(com)[close] > 0.0)

    def test_resolved_nodal_pairs_are_not_rotated(self, monkeypatch):
        # fig11_13's near-degenerate pairs lie above the floor: its vectors,
        # and so its artifacts, are those of the solve without the rotation
        h = build_hamiltonian(preset_config("fig11_13"))
        eig, vectors = gather(h)
        assert np.any(np.diff(eig.values) < 1e-10 * _scale(h.diag, h.offdiag))
        assert not sub_floor_states(eig.values).any()
        monkeypatch.setattr(eigensolver, "_sub_floor_basis", lambda rows, values, floor: None)
        assert np.array_equal(gather(h)[1], vectors)


def kernel_dstein(d, e, w):
    """The solver's ctypes dstein on one unreduced block: (Z as (states x sites) rows, info)."""
    d, e, w = (np.ascontiguousarray(a, dtype=float) for a in (d, e, w))
    n, m = d.size, w.size
    integer = eigensolver._LAPACK_INT
    ints = np.array([n, m], dtype=integer)  # N = ISPLIT(1) = LDZ, then M
    iblock = np.ones(m, dtype=integer)
    rows = np.zeros((m, n))
    work, iwork = np.empty(5 * n), np.empty(n, dtype=integer)
    ifail, info = np.empty(m, dtype=integer), np.zeros(1, dtype=integer)
    eigensolver._dstein(ints.ctypes.data, d.ctypes.data, e.ctypes.data,
                        ints.ctypes.data + ints.itemsize,
                        w.ctypes.data, iblock.ctypes.data, ints.ctypes.data, rows.ctypes.data,
                        ints.ctypes.data, work.ctypes.data, iwork.ctypes.data,
                        ifail.ctypes.data, info.ctypes.data)
    return rows, int(info[0])


def sterf_blocks(d, e):
    """The unreduced blocks (lo, hi) of (d, e) by DSTEBZ's split rule, and scipy's f2py
    sterf values of each."""
    split = e**2 <= eigensolver._ULP**2 * np.abs(d[:-1] * d[1:]) + eigensolver._SAFE_MIN
    edges = np.concatenate(([0], np.flatnonzero(split) + 1, [d.size]))
    blocks = list(zip(edges[:-1], edges[1:]))
    return blocks, [scipy.linalg.eigvalsh_tridiagonal(d[lo:hi], e[lo:hi - 1],
                                                      lapack_driver="sterf")
                    for lo, hi in blocks]


def mirror_sectors(h):
    """(d, e, folded): the two mirror sectors of an even palindrome side by side, split by
    a zero middle bond, with folded true; any other operator as it is, with folded false.

    A palindrome here is what the solver takes for one: every entry within
    DEGENERACY_ULPS ulps of the scale of its mirror image.
    """
    d, e = h.diag, h.offdiag
    n, m = d.size, d.size // 2
    equal = eigensolver.DEGENERACY_ULPS * np.spacing(_scale(d, e))
    if n % 2 or np.any(np.abs(d - d[::-1]) > equal) or np.any(np.abs(e - e[::-1]) > equal):
        return d, e, False
    even, odd = d[:m].copy(), d[:m].copy()
    even[-1] += e[m - 1]
    odd[-1] -= e[m - 1]
    return np.concatenate((even, odd)), np.concatenate((e[:m - 1], [0.0], e[:m - 1])), True


def f2py_vectors(h):
    """The grouped solve with scipy's f2py dstein, one call per group in order, sign-fixed.

    The (sites x states) reference for `eigh_tridiagonal`'s threaded ctypes
    path: the same blocks, sterf values and group cuts, solved serially. An
    even palindrome is solved as its two mirror sectors, whose vectors x
    become [x; Jx]/sqrt2 and [x; -Jx]/sqrt2; then every cluster of levels
    below the rounding floor gets the solver's site-index basis.
    """
    d, e, folded = mirror_sectors(h)
    n = d.size
    blocks, block_values = sterf_blocks(d, e)
    values = np.concatenate(block_values)
    order = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    rows = np.zeros((n, n))  # state-major, as the solver keeps them
    cut = GROUP_GAP_REL * _scale(h.diag, h.offdiag)
    for (lo, hi), w in zip(blocks, block_values):
        size = hi - lo
        if size == 1:
            rows[rank[lo], lo] = 1.0
            continue
        iblock, isplit = np.ones(size, dtype=np.int32), np.zeros(size, dtype=np.int32)
        isplit[0] = size
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(w) > cut) + 1, [size]))
        for g0, g1 in zip(cuts[:-1], cuts[1:]):
            z, info = dstein(d[lo:hi], e[lo:hi - 1], w[g0:g1], iblock, isplit)
            assert info == 0
            rows[rank[lo + g0:lo + g1], lo:hi] = z.T
    if folded:
        m, odd = n // 2, order[:, None] >= n // 2
        half = np.where(odd, rows[:, m:], rows[:, :m]) / math.sqrt(2.0)
        rows = np.concatenate((half, np.where(odd, -half[:, ::-1], half[:, ::-1])), axis=1)
    eigensolver._sub_floor_basis(rows, values[order], eigensolver.rounding_floor(values))
    return _fix_signs(rows.T)


def interleaved_blocks():
    """Two identical decoupled 60-site blocks inside one narrow spectral group.

    The stable sort gives block 0's k-th level row 2k and block 1's row
    2k + 1, so each 60-state group's rows interleave with the other's.
    """
    rng = np.random.default_rng(60)
    d, e = 10.0 + 1e-5 * rng.normal(size=60), 1e-5 * rng.normal(size=59)
    return TridiagonalHamiltonian(np.concatenate([d, d]), np.concatenate([e, [0.0], e]))


def decoupled_close_levels(cells=40):
    """eps = 0 cells whose levels d1 and d2 fall in one group: each 2-site block
    is a 2-state group, and its rows interleave with every other cell's."""
    grid = realize_profile(ProfileSpec("linear", cells, phi_start=0.3, phi_end=1.2))
    return assemble(grid, CellParams(1.0, 1.0 + 0.5 * GROUP_GAP_REL, 0.0))


class TestThreadedKernel:
    """dstein through its ctypes pointer, one thread per chunk of groups, state-major rows."""

    @pytest.mark.parametrize("sites, seed", [(200, 1), (1002, 2)])
    @pytest.mark.parametrize("pick", [
        pytest.param(lambda w: w[:1], id="first-singleton"),
        pytest.param(lambda w: w[w.size // 2:w.size // 2 + 1], id="middle-singleton"),
        pytest.param(lambda w: w[7:12], id="five-state-group"),
        pytest.param(lambda w: w[-3:], id="last-rows"),
    ])
    def test_kernel_is_bit_equal_to_the_f2py_wrapper(self, sites, seed, pick):
        h = random_operator(sites, seed)
        w = pick(scipy.linalg.eigvalsh_tridiagonal(h.diag, h.offdiag, lapack_driver="sterf"))
        size = h.sites
        iblock, isplit = np.ones(size, dtype=np.int32), np.zeros(size, dtype=np.int32)
        isplit[0] = size
        z, info = dstein(h.diag, h.offdiag, w, iblock, isplit)
        rows, kernel_info = kernel_dstein(h.diag, h.offdiag, w)
        assert info == kernel_info == 0
        assert np.array_equal(rows, z.T)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_hamiltonian(preset_config("fig13")), id="fig13"),
        pytest.param(lambda: build_hamiltonian(preset_config("fig6", {"sites": 1802})),
                     id="fig6-1802-sites"),
        pytest.param(lambda: build_hamiltonian(preset_config("fig1")), id="fig1"),
        pytest.param(decoupled_close_levels, id="eps0-interleaved-pairs"),
        pytest.param(interleaved_blocks, id="interleaved-60-state-groups"),
    ])
    def test_worker_count_does_not_change_the_bits(self, make, monkeypatch):
        h = make()
        # every operator here gets all the threads, however little work it holds
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        threaded, threaded_vectors = gather(h)
        monkeypatch.setattr(eigensolver, "_WORKERS", 1)
        serial, serial_vectors = gather(h)
        assert np.array_equal(threaded.values, serial.values)
        assert np.array_equal(threaded_vectors, serial_vectors)
        assert threaded.ortho_bound == serial.ortho_bound
        # and both are the f2py wrapper's bits, group by group (sector by
        # sector for fig1), in the same site-index basis below the floor
        assert np.array_equal(threaded_vectors, f2py_vectors(h))

    def test_concurrent_calls_get_the_serial_bits(self, monkeypatch):
        # more solver threads than cores, in two calling threads at once, with
        # the interpreter switching threads as often as it can
        operators = [random_operator(300, seed) for seed in (3, 4)]
        serial = [gather(h) for h in operators]
        monkeypatch.setattr(eigensolver, "_WORKERS", 4 * eigensolver._WORKERS)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        results = [None] * len(operators)

        def solve(i):
            results[i] = gather(operators[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(operators))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (got, got_vectors), (want, want_vectors) in zip(results, serial):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got_vectors, want_vectors)

    def test_a_failed_group_raises_in_the_caller_naming_its_eigenvalue(self, monkeypatch):
        h = small_lattice(20)
        target = float(eigh_tridiagonal(h).values[29])
        kernel = eigensolver._dstein

        def failing(*args):
            kernel(*args)
            if ctypes.c_double.from_address(args[4]).value == target:  # W(1)
                lapack_int.from_address(args[12]).value = 1  # INFO

        monkeypatch.setattr(eigensolver, "_dstein", failing)
        # level 29 of 40 falls in the last chunk, which a pool thread solves
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        with pytest.raises(SolverError, match=rf"failed near {target:.6g} \(dstein info 1\)"):
            eigh_tridiagonal(h)

    def test_the_readers_get_read_only_state_major_views_of_the_window(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)  # every core reads each block
        blocks = []

        def reader(lo, rows):
            blocks.append((lo, rows.shape[0], window_of(rows).shape[0],
                           rows.flags.c_contiguous and not rows.flags.writeable))

        eig = eigh_tridiagonal(small_lattice(300), lambda values: (reader,))
        assert all(height < eig.size and view for _, _, height, view in blocks)
        # every state reaches the reader once, in runs that tile each block
        runs = sorted((lo, k) for lo, k, *_ in blocks)
        assert [lo for lo, _ in runs] == list(itertools.accumulate([0] + [k for _, k in runs[:-1]]))
        assert sum(k for _, k in runs) == eig.size
        assert len(runs) == math.ceil(eig.size / STATE_BLOCK) * min(eigensolver._WORKERS,
                                                                    STATE_BLOCK)

    def test_share_runs_a_worker_on_the_caller_and_each_other_on_a_thread_of_its_own(
            self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_WORKERS", 3)
        work = 3 * eigensolver._THREAD_WORK
        caller, before, built = threading.get_ident(), threading.active_count(), []

        def make():  # every context is built on the caller before any thread starts
            built.append((threading.get_ident(), threading.active_count()))
            return len(built)

        def call(context, item):
            return item, context, threading.get_ident(), threading.active_count()

        # one item runs on the caller and starts no thread
        assert share(call, ["a"], work, make) == [("a", 1, caller, before)]
        assert built == [(caller, before)]
        # every worker waits for the others before and after it looks, so each
        # takes one item and all three threads are alive while each looks
        meet, built = threading.Barrier(3, timeout=60), []

        def meeting(context, item):
            meet.wait()
            seen = call(context, item)
            meet.wait()
            return seen

        done = share(meeting, ["a", "b", "c"], work, make)
        assert built == [(caller, before)] * 3
        assert [item for item, *_ in done] == ["a", "b", "c"]
        assert sorted(context for _, context, *_ in done) == [1, 2, 3]
        assert caller in {thread for *_, thread, _ in done}
        assert len({thread for *_, thread, _ in done}) == 3
        assert [count for *_, count in done] == [before + 2] * 3
        # every thread is joined before share returns
        assert threading.active_count() == before

    def test_workers_are_the_thread_count_of_the_work_and_at_most_one_per_item(
            self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_WORKERS", 3)
        unit, built = eigensolver._THREAD_WORK, []
        for work, items, workers in [(unit, 5, 1), (2 * unit, 5, 2), (9 * unit, 5, 3),
                                     (9 * unit, 2, 2)]:
            built.clear()
            assert share(lambda _, item: item, range(items), work, lambda: built.append(1)
                         ) == list(range(items))
            assert len(built) == workers

    def test_every_item_runs_once_when_items_outnumber_workers(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_WORKERS", 4)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        before, contexts, ran = threading.active_count(), [], []

        def call(context, item):
            ran.append((item, context))
            time.sleep(0)  # let another worker take the next item
            return -item

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            done = share(call, range(500), 500, lambda: contexts.append(object()) or contexts[-1])
        finally:
            sys.setswitchinterval(interval)
        assert done == [-item for item in range(500)]
        assert sorted(item for item, _ in ran) == list(range(500))
        assert len(contexts) == 4 and {id(c) for _, c in ran} <= {id(c) for c in contexts}
        assert threading.active_count() == before

    def test_a_failing_item_raises_in_the_caller_after_every_item_is_done(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_WORKERS", 2)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        done, before = [], threading.active_count()

        def call(_, item):
            time.sleep(0.1 * (item == 2))  # the later item fails first
            if item in (2, 3):
                raise ValueError(f"item {item}")
            time.sleep(0.05)
            done.append(item)

        # the first failed item's exception, in item order
        with pytest.raises(ValueError, match="^item 2$"):
            share(call, [0, 1, 2, 3, 4, 5], 6)
        assert sorted(done) == [0, 1, 4, 5]
        assert threading.active_count() == before
        # a failure on the first item, which either worker may take: the rest still run
        with pytest.raises(ValueError, match="^item 3$"):
            share(call, [3, 4], 2)
        assert sorted(done) == [0, 1, 4, 4, 5]
        assert threading.active_count() == before

    def test_sharing_no_items_calls_nothing(self):
        ran, before = [], threading.active_count()
        assert share(lambda *args: ran.append(args), [], 1 << 40,
                     lambda: ran.append("context")) == []
        assert ran == [] and threading.active_count() == before

    def test_a_share_inside_a_share_runs_on_its_caller_alone(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "_WORKERS", 3)
        work = 3 * eigensolver._THREAD_WORK
        before = threading.active_count()
        assert eigensolver.thread_count(work) == 3

        def inner(_, item):
            return threading.get_ident(), eigensolver.thread_count(work)

        def outer(_, item):
            built = []
            seen = share(inner, range(4), work, lambda: built.append(threading.get_ident()))
            return threading.get_ident(), built, seen

        # on the caller and on each thread, while an item runs
        for thread, built, seen in share(outer, range(3), work):
            assert built == [thread]
            assert seen == [(thread, 1)] * 4
        assert threading.active_count() == before
        # the caller's flag is put back after its items, also when an item raised
        with pytest.raises(ZeroDivisionError):
            share(lambda _, item: 1 / item, [0, 1], work)
        assert eigensolver.thread_count(work) == 3

    def test_workers_are_the_cores_the_process_may_run_on(self):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("the platform sets no CPU affinity")
        assert eigensolver._WORKERS == len(os.sched_getaffinity(0))
        # a process pinned to one core solves on that core alone
        in_child("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                 "from iplsim import eigensolver; assert eigensolver._WORKERS == 1; "
                 "assert eigensolver.thread_count(1 << 40) == 1")

    @pytest.mark.parametrize("name, overrides", [
        ("fig13", {}), ("fig6", {"sites": 1802}), ("fig10", {}),
    ], ids=["fig13", "fig6-1802-sites", "fig10"])
    def test_threaded_walk_measures_and_pixels_are_the_serial_bits(self, name, overrides,
                                                                    monkeypatch, preset_eig):
        config, eig, vectors = preset_eig(name, **overrides)
        selection = range(eig.size)
        want = state_measures(vectors.T)
        # 4x the cores, each reading a sliver of every block
        monkeypatch.setattr(eigensolver, "_WORKERS", 4 * eigensolver._WORKERS)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        threads = set()
        measure_block = measures._measure_block

        def recording(*args):
            threads.add(threading.get_ident())
            return measure_block(*args)

        monkeypatch.setattr(measures, "_measure_block", recording)
        got, pixels = walked(build_hamiltonian(config), selection)
        assert_same_measures(got, want)
        assert np.array_equal(pixels, analysis.eigenstate_map(vectors.T))
        assert len(threads) > 1

    def test_concurrent_walks_get_the_serial_bits(self, monkeypatch):
        configs = [configure(DEFAULT_CONFIG, {"sites": 600, "lf": lf}) for lf in (0.7, 3.0)]
        serial = [run_config(config) for config in configs]
        monkeypatch.setattr(eigensolver, "_WORKERS", 4 * eigensolver._WORKERS)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        results = [None] * len(configs)

        def run(i):
            # each thread's walk measures every block on threads of its own
            results[i] = run_config(configs[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (_, got_eig, got), (_, want_eig, want) in zip(results, serial):
            assert np.array_equal(got_eig.values, want_eig.values)
            assert (got_eig.residual_bound, got_eig.ortho_bound) == (want_eig.residual_bound,
                                                                     want_eig.ortho_bound)
            assert_same_report(got, want)

    def test_threaded_readers_keep_one_blocks_scratch(self, monkeypatch):
        h = build_hamiltonian(preset_config("fig13"))
        walked(h, range(10))  # numpy's first-call set-up is not the walk's scratch
        monkeypatch.setattr(eigensolver, "_WORKERS", 2)
        monkeypatch.setattr(eigensolver, "_THREAD_WORK", 1)
        (measured, pixels), peak = traced_peak(walked, h, range(10))
        window = 221 * h.sites * 8  # fig13's widest certificate window, in states
        outputs = sum(getattr(measured, f.name).nbytes for f in fields(measured)) + pixels.nbytes
        # each thread measures half of a block: together one block's two float
        # buffers, next to the window and the certificate's panel
        assert peak <= window + 2.5 * 8 * STATE_BLOCK * h.sites + outputs


class TestStreamedWalk:
    """A walk holds one window of states and hands its readers what one slab of them all would."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: build_hamiltonian(preset_config("fig1")), id="mirrored-fig1"),
        pytest.param(lambda: split_operator(600, every=50), id="twelve-unreduced-blocks"),
        pytest.param(lambda: build_hamiltonian(preset_config("fig10")),
                     id="fig10-sub-floor-clusters"),
        pytest.param(lambda: build_hamiltonian(configure(DEFAULT_CONFIG, {"sites": 1802})),
                     id="default-1802-sites-200-state-group"),
    ])
    def test_small_slabs_give_the_one_slab_measures_and_pixels(self, make, monkeypatch):
        h = make()
        plan, slabs = eigensolver._walk_plan, []

        def recording(*args):
            slabs.append(plan(*args)[0])
            return slabs[-1], plan(*args)[1]

        monkeypatch.setattr(eigensolver, "_walk_plan", recording)
        selection = range(h.sites // 3, h.sites)
        # one block of every state: one slab, and a window that never slides
        monkeypatch.setattr(eigensolver, "STATE_BLOCK", h.sites)
        want, want_pixels = walked(h, selection)
        assert len(slabs[-1]) == 1
        # 16-state blocks: every lattice here needs many slabs
        monkeypatch.setattr(eigensolver, "STATE_BLOCK", 16)
        got, pixels = walked(h, selection)
        assert len(slabs[-1]) > 4
        assert_same_measures(got, want)
        assert np.array_equal(pixels, want_pixels)

    @pytest.mark.parametrize("config, states", [
        (preset_config("fig13"), 221), (preset_config("fig6", {"sites": 1802}), 266),
        (preset_config("fig1"), 195),
        # the default lattice at 1802 sites holds a 200-state group per sector
        (configure(DEFAULT_CONFIG, {"sites": 1802}), 0.25 * 1802),
    ], ids=["fig13", "fig6-1802-sites", "fig1", "default-1802-sites"])
    def test_the_window_holds_a_fraction_of_the_states(self, config, states, monkeypatch):
        h = build_hamiltonian(config)
        monkeypatch.setattr(eigensolver, "_WORKERS", 2)  # two solver threads' Z buffers
        heights = set()
        _, peak = traced_peak(eigh_tridiagonal, h, lambda values: (
            lambda lo, rows: heights.add(window_of(rows).shape[0]),))
        [height] = heights
        assert STATE_BLOCK < height <= states
        # the window, and the scratch of dstein (a group of up to 56 states on
        # each of two threads), of the mirror unfold and of the certificate
        assert peak <= (height + 2 * STATE_BLOCK) * 8 * h.sites


def split_operator(sites, every):
    """A random operator cut into unreduced blocks of `every` sites by zero bonds."""
    h = random_operator(sites, seed=every)
    offdiag = h.offdiag.copy()
    offdiag[every - 1::every] = 0.0
    return TridiagonalHamiltonian(h.diag, offdiag)


def window_of(rows):
    """The array that holds a view's memory: the walk's window for the rows a reader gets."""
    while rows.base is not None:
        rows = rows.base
    return rows


def walked(h, selection):
    """(StateMeasures, map pixels of `selection`) read from the walk of h's solve."""
    measuring = analysis.Measuring(analysis.AnalysisThresholds())
    pixels = np.empty((len(selection), h.sites), dtype=np.uint8)

    def map_rows(lo, rows):
        start, stop = max(lo, selection.start), min(lo + rows.shape[0], selection.stop)
        if start < stop:
            pixels[selection.stop - stop:selection.stop - start] = analysis.eigenstate_map(
                rows[start - lo:stop - lo])

    eigh_tridiagonal(h, lambda values: (measuring, map_rows))
    return measuring.measures(), pixels


def assert_same_measures(got, want):
    """All six per-state measures of two StateMeasures are bit-equal."""
    assert [f.name for f in fields(want)] == ["ipr", "cfs", "com", "w_left", "w_right", "nodes"]
    for f in fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def assert_same_report(got, want):
    """The per-state measures, labels and multiplets of two reports are bit-equal."""
    assert_same_measures(got.measures, want.measures)
    assert np.array_equal(got.labels.labels, want.labels.labels)
    assert np.array_equal(got.labels.localized, want.labels.localized)
    assert got.multiplets == want.multiplets


class TestLapackRoute:
    """dsterf and dstein come from numpy's bundled OpenBLAS, or else from scipy's capsules."""

    @pytest.mark.skipif(eigensolver._LAPACK_INT.itemsize != 8,
                        reason="numpy ships no bundled OpenBLAS with LAPACK, so the solver "
                               "takes dsterf and dstein from scipy")
    def test_import_and_a_fig13_run_load_no_scipy(self, tmp_path):
        in_child(f"import sys, iplsim; from iplsim.cli import main; "
                 f"assert main(['preset', 'fig13', '--out', {str(tmp_path)!r}]) == 0; "
                 f"loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                 f"assert not loaded, loaded")

    def test_import_loads_no_thread_pool_module(self):
        # the solve's threads are plain threading.Threads: concurrent.futures
        # (and the logging it imports) cost milliseconds of every run's set-up
        in_child("import sys, iplsim, iplsim.cli; "
                 "loaded = [m for m in sys.modules if m.split('.')[0] in "
                 "('concurrent', 'logging')]; assert not loaded, loaded")

    def test_a_solve_loads_no_masked_array_module(self):
        # np.unique's first call imports numpy.ma, about 20 ms of a process's first solve
        in_child("import sys, numpy as np, iplsim; "
                 "from iplsim.hamiltonian import TridiagonalHamiltonian; "
                 "iplsim.eigh_tridiagonal(TridiagonalHamiltonian(np.arange(4.0), np.ones(3))); "
                 "assert 'numpy.ma' not in sys.modules")

    @pytest.mark.parametrize("config", [
        pytest.param(preset_config("fig13"), id="fig13"),
        pytest.param(preset_config("fig6", {"sites": 1802}), id="fig6-1802-sites"),
        pytest.param(preset_config("fig1"), id="fig1"),
    ])
    def test_scipys_capsules_give_the_bundled_bits(self, config, monkeypatch):
        h = build_hamiltonian(config)
        bundled, bundled_vectors = gather(h)
        setter, dsterf, dstein, integer = eigensolver._lapack(bundled=False)
        assert setter is None and integer == np.int32
        for name, value in (("_dsterf", dsterf), ("_dstein", dstein), ("_LAPACK_INT", integer)):
            monkeypatch.setattr(eigensolver, name, value)
        fallback, fallback_vectors = gather(h)
        assert np.array_equal(fallback.values, bundled.values)
        assert np.array_equal(fallback_vectors, bundled_vectors)
        assert (fallback.residual_bound, fallback.ortho_bound) == (bundled.residual_bound,
                                                                   bundled.ortho_bound)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: random_operator(300, 5), id="random"),
        pytest.param(decoupled_close_levels, id="eps0-two-site-blocks"),
        pytest.param(lambda: TridiagonalHamiltonian(np.array([0.7]), np.array([])),
                     id="one-site"),
    ])
    def test_values_are_scipys_sterf_bits_block_by_block(self, make):
        h = make()
        want = np.sort(np.concatenate(sterf_blocks(h.diag, h.offdiag)[1]), kind="stable")
        assert np.array_equal(eigh_tridiagonal(h).values, want)


def in_child(code: str, blas_threads: int | None = None) -> None:
    """Run `code` in a fresh interpreter whose OpenBLAS gets `blas_threads`
    threads, if given, before numpy loads; raise, with its stderr, if it fails."""
    env = dict(os.environ)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = str(Path(eigensolver.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                   check=True, timeout=120)


def blas_threads() -> int:
    """numpy's OpenBLAS thread count, read by setting it and setting it back."""
    count = eigensolver._set_blas_threads(1)
    eigensolver._set_blas_threads(count)
    return count


needs_thread_setter = pytest.mark.skipif(
    eigensolver._set_blas_threads is None,
    reason="numpy's BLAS has no openblas_set_num_threads_local")


class FailingProduct(np.ndarray):
    """Vectors whose Gram panel product raises."""

    def __matmul__(self, other):
        raise FloatingPointError("panel product")


class TestOneBlasThread:
    """The certificate's Gram panels run on one OpenBLAS thread.

    The replay test writes a run on two BLAS threads and replays it on one.
    It shows something only on a machine with two or more cores: on one core,
    OpenBLAS may give both children one thread.
    """

    @needs_thread_setter
    def test_a_fig1_manifest_replays_under_another_blas_thread_count(self, tmp_path):
        run, again = tmp_path / "run", tmp_path / "replay"
        in_child(f"from iplsim.cli import main; main(['preset', 'fig1', '--out', {str(run)!r}])", 2)
        # replay raises, and the child fails, on any checksum drift
        in_child(f"import iplsim; iplsim.replay({str(run / 'manifest.json')!r}, {str(again)!r})", 1)
        assert (again / "summary.json").read_bytes() == (run / "summary.json").read_bytes()

    @needs_thread_setter
    @pytest.mark.parametrize("solve", [eigh_tridiagonal, dense_oracle],
                             ids=["eigh_tridiagonal", "dense_oracle"])
    def test_the_pin_gives_back_the_callers_count(self, solve, monkeypatch):
        setter, calls = eigensolver._set_blas_threads, []

        def recording(count):
            previous = setter(count)
            calls.append((count, previous))
            return previous

        before = blas_threads()
        monkeypatch.setattr(eigensolver, "_set_blas_threads", recording)
        solve(small_lattice(10))
        assert calls == [(1, before), (before, 1)]
        assert blas_threads() == before

    @needs_thread_setter
    def test_the_callers_count_comes_back_when_a_panel_raises(self):
        h = small_lattice(300)
        eig, vectors = gather(h)
        before = blas_threads()
        with pytest.raises(FloatingPointError, match="panel product"):
            _certify(h.diag, h.offdiag, eig.values, np.array(vectors).view(FailingProduct))
        assert blas_threads() == before

    @needs_thread_setter
    def test_the_callers_count_comes_back_when_the_certificate_fails(self, monkeypatch):
        before = blas_threads()
        monkeypatch.setattr(eigensolver, "ORTHO_CAP", 0.0)
        with pytest.raises(SolverError, match="orthonormality"):
            eigh_tridiagonal(small_lattice(300))
        with pytest.raises(SolverError, match="orthonormality"):
            dense_oracle(small_lattice(10))
        assert blas_threads() == before

    @needs_thread_setter
    def test_one_pin_at_a_time(self):
        # numpy's wheels build OpenBLAS on pthreads, where the count is the
        # process's: a second pin must wait, or the first one to finish would
        # give back its count under the other's panels
        before = blas_threads()
        entered = threading.Event()

        def pin():
            with eigensolver._one_blas_thread():
                entered.set()

        with eigensolver._one_blas_thread():
            assert blas_threads() == 1
            other = threading.Thread(target=pin)
            other.start()
            assert not entered.wait(0.2)
        other.join(timeout=10)
        assert entered.is_set()
        assert blas_threads() == before

    @needs_thread_setter
    def test_concurrent_pins_hold_one_thread_and_give_back_the_count(self):
        # more pinning threads than cores, switching as often as the
        # interpreter can, each running a BLAS product inside its pin: a
        # count given back under another thread's pin would show inside it,
        # or be left behind at 1
        before = blas_threads()
        a = np.random.default_rng(0).standard_normal((96, 96))
        seen = []

        def pin():
            for _ in range(50):
                with eigensolver._one_blas_thread():
                    a @ a
                    seen.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin) for _ in range(4 * eigensolver._WORKERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 50 * len(threads)
        assert blas_threads() == before

    def test_without_the_setter_the_panels_run_as_they_are(self, monkeypatch, preset_eig):
        config, _, pinned = preset_eig("fig13")
        monkeypatch.setattr(eigensolver, "_set_blas_threads", None)
        eig, vectors = gather(build_hamiltonian(config))
        assert eig.ortho_bound <= ORTHO_CAP
        assert np.array_equal(vectors, pinned)


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
        eig, vectors = gather(h)
        value, ref = mp_ground_state(h, float(eig.values[0]))
        assert abs(eig.values[0] - value) <= 1e-15 * _scale(h.diag, h.offdiag)
        counted = np.abs(ref) > 1e-250
        rel = np.abs(vectors[counted, 0] - ref[counted]) / np.abs(ref[counted])
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

    def test_bits_of_the_separate_updates(self):
        # the first 50 instances of acceptance criterion 2's battery, and 10
        # of up to 16 sites: values, vectors and signs bit for bit
        battery, small = SplitMix64(0xA5EED), SplitMix64(12345)
        matrices = [random_instance(battery, max_sites=64).dense() for _ in range(50)]
        matrices += [random_instance(small, max_sites=16).dense() for _ in range(10)]
        matrices += [degenerate_matrix(), theta_guard_matrix(), symmetric(31, 31)]
        for a in matrices:
            values, vectors = eigensolver._jacobi(a)
            want_values, want_vectors = jacobi_reference._jacobi(a)
            assert np.array_equal(values, want_values)
            assert np.array_equal(vectors, want_vectors)
            assert np.array_equal(np.signbit(vectors), np.signbit(want_vectors))

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


def measured_nodes(vectors, floor=0.0):
    """Node counts of a (sites x states) block of normalized vectors, or of one vector."""
    vectors = np.asarray(vectors)
    rows = vectors[None, :] if vectors.ndim == 1 else vectors.T
    counts = state_measures(rows, n_b=1, amplitude_floor=floor).nodes
    return int(counts[0]) if vectors.ndim == 1 else counts


def normalized(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestNodeCount:
    def test_contract_examples(self):
        assert measured_nodes(normalized([1.0, 1.0, 1.0]), 1e-8) == 0
        assert measured_nodes(normalized([1.0, -1.0]), 1e-8) == 1

    def test_floor_masks_tail_noise(self):
        # alternating tail far below the floor must not register
        v = normalized([1.0, 0.5, 1e-12, -1e-12, 1e-12])
        assert measured_nodes(v, 1e-8) == 0
        assert measured_nodes(v, 0.0) == 2

    def test_floor_is_relative_to_peak(self):
        # the peak is 0.5, so the floor is 0.25: every entry counts, where an
        # absolute floor of 0.5 would mask them all
        v = np.array([0.5, -0.5, 0.5, -0.5])
        assert measured_nodes(v, 0.5) == 3
        assert sign_changes(v, 0.5) == 3
        # an entry exactly at the floor does not clear it
        assert measured_nodes(v, 1.0) == 0

    def test_sturm_law_descending_rank(self):
        # positive off-diagonals: the highest state is nodeless, then one node
        # per step downward
        h = assemble(realize_profile(ProfileSpec("linear", 12, phi_start=0.6, phi_end=0.6)), PARAMS)
        assert np.all(h.offdiag > 0)
        eig, vectors = gather(h)
        assert measured_nodes(vectors).tolist() == list(range(eig.size - 1, -1, -1))

    def test_block_counts_each_column(self):
        eig, vectors = gather(random_instance(SplitMix64(3), max_sites=60))
        counts = measured_nodes(vectors)
        assert counts.tolist() == [measured_nodes(vectors[:, j]) for j in range(eig.size)]
        assert counts.tolist() == [sign_changes(vectors[:, j], 0.0) for j in range(eig.size)]

    def test_sturm_law_on_a_random_instance(self):
        h = random_instance(SplitMix64(7), max_sites=120)
        eig, vectors = gather(h)
        assert measured_nodes(vectors).tolist() == list(range(eig.size - 1, -1, -1))


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


def test_eigensystem_holds_read_only_1d_values_and_the_bounds():
    eig = EigenSystem([1.0, 2.0], residual_bound=0.0, ortho_bound=0.0)
    assert eig.size == 2 and not eig.values.flags.writeable
    assert [f.name for f in fields(EigenSystem)] == ["values", "residual_bound", "ortho_bound"]
    for bad_values in (np.ones((2, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="need 1-D values"):
            EigenSystem(bad_values, residual_bound=0.0, ortho_bound=0.0)
