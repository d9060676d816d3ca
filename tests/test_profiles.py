import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iplsim.profiles import (
    MAX_SITES,
    ProfileSpec,
    QUARTER_TURN,
    random_onsite_sequence,
    realize_profile,
)


def revolutions(phi_min, phi_max, revs, cells):
    spec = ProfileSpec("revolutions", cells, phi_start=phi_min, phi_end=phi_max,
                       revolutions=revs)
    return realize_profile(spec)


class TestLinear:
    def test_width_law(self):
        # interval length is (pi/4)/lf, centered
        p = realize_profile(ProfileSpec.linear(QUARTER_TURN, 0.5, 151))
        assert p[0] == pytest.approx(0.0, abs=1e-15)
        assert p[-1] == pytest.approx(math.pi / 2, abs=1e-15)
        p = realize_profile(ProfileSpec.linear(QUARTER_TURN, 1.0, 501))
        assert p[-1] - p[0] == pytest.approx(QUARTER_TURN)

    def test_equispaced_and_monotone(self):
        p = realize_profile(ProfileSpec.linear(QUARTER_TURN, 2.0, 41))
        steps = np.diff(p)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0])

    def test_symmetric_grid_mirrors_to_quarter_turn_complement(self):
        # centered at pi/4, phi_m + phi_{N+1-m} = pi/2: the inversion-symmetry seed
        p = realize_profile(ProfileSpec.linear(QUARTER_TURN, 1.0, 100))
        assert np.allclose(p + p[::-1], math.pi / 2, atol=1e-14)

    def test_large_lf_collapses_to_point(self):
        p = realize_profile(ProfileSpec.linear(QUARTER_TURN, 1e6, 11))
        assert np.all(np.abs(p - QUARTER_TURN) < 1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ProfileSpec.linear(QUARTER_TURN, 0.0, 10)
        with pytest.raises(ValueError):
            ProfileSpec.linear(QUARTER_TURN, -1.0, 10)
        with pytest.raises(ValueError):
            ProfileSpec.linear(QUARTER_TURN, 1.0, 1)

    def test_spec_records_the_grid_recipe(self):
        spec = ProfileSpec.linear(0.7, 3.0, 9)
        width = QUARTER_TURN / 3.0
        assert (spec.kind, spec.cells, spec.lf) == ("linear", 9, 3.0)
        assert (spec.phi_start, spec.phi_end) == (0.7 - width / 2, 0.7 + width / 2)
        assert ProfileSpec(**spec.to_dict()) == spec

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.2, max_value=50.0),
           st.integers(min_value=2, max_value=400))
    def test_grid_endpoints_any_parameters(self, center, lf, cells):
        p = realize_profile(ProfileSpec.linear(center, lf, cells))
        width = QUARTER_TURN / lf
        assert p[0] == pytest.approx(center - width / 2, rel=1e-12, abs=1e-12)
        assert p[-1] == pytest.approx(center + width / 2, rel=1e-12, abs=1e-12)
        assert len(p) == cells


def test_asymmetric_endpoints():
    p = realize_profile(ProfileSpec("linear", 151, phi_start=math.pi / 8,
                                    phi_end=math.pi / 4))
    assert p[0] == pytest.approx(math.pi / 8)
    assert p[-1] == pytest.approx(math.pi / 4)


def test_constant_profile():
    # a linear grid with equal endpoints is exactly constant; no separate kind
    p = realize_profile(ProfileSpec("linear", 25, phi_start=0.3, phi_end=0.3))
    assert np.all(p == 0.3)
    with pytest.raises(ValueError, match="unknown profile kind"):
        ProfileSpec("constant", 25, phi_start=0.3, phi_end=0.3)


class TestRevolutions:
    def test_single_revolution_shape(self):
        # 9 cells, 1 revolution: up in 4 steps, down in 4
        p = revolutions(0.0, 1.0, 1, 9)
        assert np.allclose(p, [0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25, 0])

    def test_turning_points_exact_on_grid(self):
        p = revolutions(math.pi / 8, 3 * math.pi / 8, 1, 201)
        assert p[0] == math.pi / 8
        assert p[-1] == math.pi / 8
        assert p[100] == 3 * math.pi / 8

    def test_peak_count_matches_revolutions(self):
        p = revolutions(0.0, 1.0, 2, 9)
        assert np.count_nonzero(p == 1.0) == 2

    def test_three_revolutions_preset_geometry(self):
        p = revolutions(math.pi / 8, 3 * math.pi / 8, 3, 181)
        peaks = np.flatnonzero(p == 3 * math.pi / 8)
        valleys = np.flatnonzero(p == math.pi / 8)
        assert list(peaks) == [30, 90, 150]
        assert list(valleys) == [0, 60, 120, 180]

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=3, max_value=500))
    def test_stays_inside_interval(self, revs, cells):
        p = revolutions(0.2, 0.9, revs, cells)
        assert p.min() >= 0.2 - 1e-15
        assert p.max() <= 0.9 + 1e-15

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="below"):
            ProfileSpec("revolutions", 10, phi_start=1.0, phi_end=0.5, revolutions=1)
        with pytest.raises(ValueError, match="below"):
            ProfileSpec("revolutions", 10, phi_start=0.5, phi_end=0.5, revolutions=1)
        with pytest.raises(ValueError):
            ProfileSpec("revolutions", 10, phi_start=0.0, phi_end=1.0, revolutions=0)


class TestRandomProfiles:
    @staticmethod
    def phases(lo, hi, seed, cells=300):
        spec = ProfileSpec("random_phase", cells, phi_start=lo, phi_end=hi, seed=seed)
        return realize_profile(spec)

    def test_phase_bounds_and_reproducibility(self):
        a = self.phases(0.4, 1.2, seed=7)
        b = self.phases(0.4, 1.2, seed=7)
        c = self.phases(0.4, 1.2, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0.4 and a.max() < 1.2

    def test_interval_order(self):
        # an empty interval is a constant random-phase lattice; an inverted one is refused
        assert np.all(self.phases(0.5, 0.5, seed=3, cells=10) == 0.5)
        with pytest.raises(ValueError, match="not above"):
            ProfileSpec("random_phase", 10, phi_start=1.2, phi_end=0.4, seed=3)

    def test_onsite_values_from_both_levels(self):
        seq = random_onsite_sequence(1.0, 2.0, 302, seed=11)
        assert set(np.unique(seq)) == {1.0, 2.0}
        assert len(seq) == 302
        again = random_onsite_sequence(1.0, 2.0, 302, seed=11)
        assert np.array_equal(seq, again)

    def test_onsite_coin_is_roughly_fair(self):
        seq = random_onsite_sequence(0.0, 1.0, 10_000, seed=3)
        assert abs(seq.mean() - 0.5) < 0.015


class TestProfileSpec:
    def test_round_trip_through_dict(self):
        spec = ProfileSpec("revolutions", 181, phi_start=0.1, phi_end=0.9, revolutions=3)
        assert ProfileSpec(**spec.to_dict()) == spec

    @pytest.mark.parametrize("lf, match", [
        (5.0, r"lf=5.0 sets a width of \(pi/4\)/lf = 0.157.*phi_end - phi_start = 1.0"),
        (-1.0, "lf must be positive"),
        (0.0, "lf must be positive"),
    ])
    def test_linear_lf_must_be_positive_and_agree_with_the_ends(self, lf, match):
        with pytest.raises(ValueError, match=match):
            ProfileSpec("linear", 8, phi_start=0.0, phi_end=1.0, lf=lf)

    @given(st.floats(min_value=-10.0, max_value=10.0),
           st.floats(min_value=1e-3, max_value=1e12))
    def test_linear_grids_pass_the_lf_check(self, center, lf):
        spec = ProfileSpec.linear(center, lf, 8)
        assert ProfileSpec(**spec.to_dict()) == spec

    @pytest.mark.parametrize("kind, fields", [
        ("linear", {"lf": 1e-320}),
        ("linear", {}),
        ("revolutions", {"revolutions": 2}),
        ("random_phase", {"seed": 1}),
    ])
    def test_ends_whose_width_overflows_are_refused_by_name(self, kind, fields):
        # a grid over them would hold inf or NaN, and an lf check against NaN passes
        with pytest.raises(ValueError, match=r"^phi_end - phi_start overflows: "
                                             r"phi_start=-1e\+308, phi_end=1e\+308$"):
            ProfileSpec(kind, 10, phi_start=-1e308, phi_end=1e308, **fields)

    def test_an_lf_whose_width_overflows_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^lf=1e-320 sets a width \(pi/4\)/lf "
                                             r"that overflows$"):
            ProfileSpec.linear(0.0, 1e-320, 10)

    def test_dict_drops_unset_fields(self):
        spec = ProfileSpec("linear", 10, phi_start=0.0, phi_end=1.0)
        assert set(spec.to_dict()) == {"kind", "cells", "phi_start", "phi_end"}

    def test_validation(self):
        with pytest.raises(ValueError):
            ProfileSpec("spline", 10, phi_start=0.0, phi_end=1.0)
        with pytest.raises(ValueError):
            ProfileSpec("linear", 1, phi_start=0.0, phi_end=1.0)
        with pytest.raises(ValueError):
            ProfileSpec("linear", 10)  # no interval
        with pytest.raises(ValueError):
            ProfileSpec("random_phase", 10, phi_start=0.0, phi_end=1.0)  # no seed
        with pytest.raises(ValueError):
            ProfileSpec("random_onsite", 10, seed=1, phi_start=0.0, phi_end=1.0)
        with pytest.raises(ValueError):
            ProfileSpec("revolutions", 10, phi_start=0.0, phi_end=1.0)  # no count

    @pytest.mark.parametrize("kind,fields", [
        ("linear", {"seed": 1}),
        ("linear", {"revolutions": 1}),
        ("revolutions", {"revolutions": 1, "seed": 1}),
        ("revolutions", {"revolutions": 1, "lf": 1.0}),
        ("random_phase", {"seed": 1, "revolutions": 2}),
        ("random_phase", {"seed": 1, "lf": 1.0}),
        ("random_onsite", {"seed": 1, "revolutions": 2}),
        ("random_onsite", {"seed": 1, "lf": 1.0}),
    ])
    def test_refuses_fields_foreign_to_the_kind(self, kind, fields):
        phases = {} if kind == "random_onsite" else {"phi_start": 0.2, "phi_end": 0.9}
        with pytest.raises(ValueError, match="take"):
            ProfileSpec(kind, 10, **phases, **fields)

    def test_realize_rejects_onsite_kind(self):
        with pytest.raises(ValueError):
            realize_profile(ProfileSpec("random_onsite", 10, seed=1))

    def test_size_cap_states_the_growth_of_the_solve_time(self):
        assert ProfileSpec("linear", MAX_SITES // 2, phi_start=0.0, phi_end=1.0)
        with pytest.raises(ValueError, match=r"20002 sites exceed the limit of 20000: "
                                             r"the solve's time grows at least as N\^2"):
            ProfileSpec("linear", MAX_SITES // 2 + 1, phi_start=0.0, phi_end=1.0)
        with pytest.raises(ValueError, match=r"2000000 sites exceed .* not fold into mirror"):
            ProfileSpec("random_onsite", 1_000_000, seed=1)


def test_phase_profile_guards():
    # one read-only float per cell, for every kind that carries phases
    for spec in (ProfileSpec("linear", 3, phi_start=0.0, phi_end=1.0),
                 ProfileSpec.linear(QUARTER_TURN, 2.0, 7),
                 ProfileSpec("revolutions", 9, phi_start=0.0, phi_end=1.0, revolutions=2),
                 ProfileSpec("random_phase", 5, phi_start=0.2, phi_end=0.9, seed=4)):
        phases = realize_profile(spec)
        assert phases.size == spec.cells
        assert phases.shape == (spec.cells,)
        assert phases.dtype == np.float64
        with pytest.raises(ValueError):
            phases[0] = 9.0


def test_onsite_sequence_is_frozen():
    seq = random_onsite_sequence(1.0, 2.0, 8, seed=5)
    assert seq.shape == (8,)
    with pytest.raises(ValueError):
        seq[0] = 3.0
