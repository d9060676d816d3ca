import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iplsim.hamiltonian import (
    CellParams,
    TridiagonalHamiltonian,
    assemble,
    assemble_onsite,
)
from iplsim.profiles import ProfileSpec, random_onsite_sequence, realize_profile

from cells import cell_blocks

PARAMS = CellParams(1.0, 2.0, 0.2)


def cell(params, phi):
    """The cell at phase phi, as the diagonal block of a one-cell lattice."""
    return cell_blocks(assemble(np.array([phi]), params))[0]


def rotated(params, phi):
    """R^T diag(d1, d2) R for the rotation R by phi, from matrix products."""
    c, s = math.cos(phi), math.sin(phi)
    r = np.array([[c, -s], [s, c]])
    return r.T @ np.diag([params.d1, params.d2]) @ r


class TestCellMatrix:
    """The cells `assemble` forms: the operator's 2x2 diagonal blocks."""

    @given(st.floats(min_value=-10.0, max_value=10.0))
    def test_isospectral_at_every_phase(self, phi):
        m = cell(PARAMS, phi)
        ev = np.linalg.eigvalsh(m)
        assert ev[0] == pytest.approx(1.0, abs=1e-12)
        assert ev[1] == pytest.approx(2.0, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_isospectral_for_any_levels(self, d1, gap, phi):
        params = CellParams(d1, d1 + gap, 0.1)
        ev = np.linalg.eigvalsh(cell(params, phi))
        assert ev[0] == pytest.approx(d1, abs=1e-10)
        assert ev[1] == pytest.approx(d1 + gap, abs=1e-10)

    def test_phase_zero_is_diagonal(self):
        m = cell(PARAMS, 0.0)
        assert (m[0, 0], m[0, 1], m[1, 1]) == (1.0, 0.0, 2.0)

    def test_quarter_turn_swaps_levels(self):
        m = cell(PARAMS, math.pi / 2)
        assert m[0, 0] == pytest.approx(2.0)
        assert m[1, 1] == pytest.approx(1.0)
        assert m[0, 1] == pytest.approx(0.0, abs=1e-16)

    def test_trace_is_phase_independent(self):
        traces = {round(float(np.trace(cell(PARAMS, p))), 12)
                  for p in np.linspace(0, math.pi, 37)}
        assert traces == {3.0}


def test_cell_params_normalizes_order():
    p = CellParams(2.0, 1.0, 0.3)
    assert (p.d1, p.d2) == (1.0, 2.0)


def test_cell_params_rejects_nonfinite():
    with pytest.raises(ValueError):
        CellParams(float("nan"), 2.0, 0.1)
    with pytest.raises(ValueError):
        CellParams(1.0, float("inf"), 0.1)


@pytest.mark.parametrize("d1,d2,eps", [(-1e308, 1e308, 0.1), (1e308, 1.5e308, 0.1),
                                       (0.0, 1.0, 1e308)])
def test_cell_params_refuse_an_operator_scale_that_overflows(d1, d2, eps):
    # each entry is finite, but max|diag| + 2 max|offdiag| of the operator need not be
    with pytest.raises(ValueError, match="float range"):
        CellParams(d1, d2, eps)
    assert CellParams(d1 / 4, d2 / 4, eps / 4).d2 == max(d1, d2) / 4


class TestAssemble:
    def test_shapes_and_interleaving(self):
        profile = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 5))
        h = assemble(profile, PARAMS)
        assert h.sites == 10
        assert h.diag.shape == (10,)
        assert h.offdiag.shape == (9,)
        # every second off-diagonal entry is the intercell coupling
        assert np.all(h.offdiag[1::2] == 0.2)

    def test_refuses_empty_and_non_1d_phases(self):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            assemble(np.array([]), PARAMS)
        with pytest.raises(ValueError, match="nonempty 1-D"):
            assemble(np.full((2, 3), 0.5), PARAMS)

    def test_matches_dense_blocks(self):
        profile = realize_profile(ProfileSpec("linear", 4, phi_start=0.2, phi_end=1.1))
        h = assemble(profile, PARAMS)
        dense = h.dense()
        assert np.array_equal(dense, dense.T)
        for i, phi in enumerate(profile):
            assert np.allclose(dense[2 * i:2 * i + 2, 2 * i:2 * i + 2], rotated(PARAMS, phi))
        # nothing beyond the first superdiagonal
        assert np.all(np.triu(dense, 2) == 0)

    def test_site_traces_follow_cell_phases(self):
        profile = realize_profile(ProfileSpec("linear", 8, phi_start=0.1, phi_end=0.8))
        h = assemble(profile, PARAMS)
        # each cell contributes d1 + d2 to the trace regardless of phase
        cell_sums = h.diag[0::2] + h.diag[1::2]
        assert np.allclose(cell_sums, 3.0)

    def test_decoupled_lattice_is_block_diagonal(self):
        profile = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 6))
        h = assemble(profile, CellParams(1.0, 2.0, 0.0))
        assert np.all(h.offdiag[1::2] == 0.0)
        ev = np.linalg.eigvalsh(h.dense())
        assert np.allclose(np.sort(ev), [1.0] * 6 + [2.0] * 6)

    @given(st.integers(min_value=2, max_value=40),
           st.floats(min_value=0.01, max_value=0.5))
    def test_trace_invariant(self, cells, eps):
        profile = realize_profile(ProfileSpec.linear(math.pi / 4, 1.3, cells))
        h = assemble(profile, CellParams(1.0, 2.0, eps))
        assert float(h.diag.sum()) == pytest.approx(3.0 * cells, rel=1e-12)

    def test_symmetric_profile_gives_palindromic_arrays(self):
        profile = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 101))
        h = assemble(profile, PARAMS)
        assert np.allclose(h.diag, h.diag[::-1], atol=1e-12)
        assert np.allclose(h.offdiag, h.offdiag[::-1], atol=1e-12)

    def test_constant_profile_at_center_is_uniform_ssh(self):
        # a linear grid with equal endpoints is the constant profile
        profile = realize_profile(ProfileSpec("linear", 10, phi_start=math.pi / 4,
                                              phi_end=math.pi / 4))
        h = assemble(profile, PARAMS)
        assert np.allclose(h.diag, 1.5)
        assert np.allclose(h.offdiag[0::2], 0.5)
        assert np.allclose(h.offdiag[1::2], 0.2)


def test_operator_leaves_the_callers_arrays_writable():
    diag, offdiag = np.ones(4), np.full(3, 0.5)
    h = TridiagonalHamiltonian(diag, offdiag)
    energies = np.ones(4)
    onsite = assemble_onsite(energies, 0.1)
    diag[0] = offdiag[0] = energies[0] = 2.0
    assert h.diag[0] == 1.0 and h.offdiag[0] == 0.5 and onsite.diag[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        h.diag[0] = 2.0


@pytest.mark.parametrize("length", [2, 4])
def test_operator_refuses_an_offdiagonal_of_the_wrong_length(length):
    with pytest.raises(ValueError, match="one entry less than diag"):
        TridiagonalHamiltonian(np.ones(4), np.ones(length))


class TestAssembleOnsite:
    def test_diagonal_is_the_sequence(self):
        seq = random_onsite_sequence(1.0, 2.0, 20, seed=4)
        h = assemble_onsite(seq, 0.25)
        assert np.array_equal(h.diag, seq)
        assert np.all(h.offdiag == 0.25)
        assert h.sites == 20

    def test_empty_rejected(self):
        seq = random_onsite_sequence(1.0, 2.0, 2, seed=4)
        h = assemble_onsite(seq, 0.1)
        assert h.offdiag.shape == (1,)
        with pytest.raises(ValueError, match="nonempty 1-D"):
            assemble_onsite(np.array([]), 0.1)
        with pytest.raises(ValueError, match="nonempty 1-D"):
            assemble_onsite(np.ones((2, 2)), 0.1)
