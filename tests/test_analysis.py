import math
from dataclasses import asdict

import numpy as np
import pytest

from iplsim.analysis import (
    AnalysisThresholds,
    analyze,
    classify_states,
    delocalized_fraction,
    detect_bands,
    detect_multiplets,
    eigenstate_map,
)
from iplsim.eigensolver import STATE_BLOCK, eigh_tridiagonal
from iplsim.hamiltonian import CellParams, assemble
from iplsim.profiles import ProfileSpec, realize_profile
from iplsim.measures import spacing_spectrum, state_measures

from curves import monotonicity_changes, smooth
from multiplets import group_of
from memory import traced_peak


class TestDetectBands:
    def test_two_clusters(self):
        values = np.concatenate([np.linspace(1.0, 1.1, 30), np.linspace(2.0, 2.1, 30)])
        part = detect_bands(spacing_spectrum(values))
        assert len(part.bands) == 2
        assert part.bands[0] == range(0, 30)
        assert part.bands[1] == range(30, 60)
        assert not part.low_confidence
        width, boundary = part.gaps[0]
        assert boundary == 29
        assert width == pytest.approx(0.9, abs=0.01)

    def test_three_clusters(self):
        values = np.concatenate([np.linspace(0, 0.1, 10),
                                 np.linspace(5, 5.1, 10),
                                 np.linspace(9, 9.1, 10)])
        part = detect_bands(spacing_spectrum(values))
        assert len(part.bands) == 3

    def test_uniform_ladder_is_one_band(self):
        part = detect_bands(spacing_spectrum(np.arange(50, dtype=float)))
        assert len(part.bands) == 1
        assert part.low_confidence
        assert part.gaps == ()

    def test_fallback_splits_at_largest_spacing(self):
        # no spacing clears gamma * median, but the ladder is not uniform
        values = np.cumsum(np.concatenate([np.full(20, 1.0), [3.0], np.full(20, 1.0)]))
        part = detect_bands(spacing_spectrum(values))
        assert part.low_confidence
        assert len(part.bands) == 2
        assert part.bands[0].stop == 20

    def test_gamma_tunes_sensitivity(self):
        values = np.cumsum(np.concatenate([np.full(20, 1.0), [10.0], np.full(20, 1.0)]))
        confident = detect_bands(spacing_spectrum(values), gamma=5.0)
        assert len(confident.bands) == 2 and not confident.low_confidence
        fallback = detect_bands(spacing_spectrum(values), gamma=20.0)
        assert len(fallback.bands) == 2 and fallback.low_confidence

    def test_needs_four_states(self):
        with pytest.raises(ValueError):
            detect_bands(spacing_spectrum(np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("cells", [10, 20, 201])
    def test_uniform_chain_splits_at_its_three_levels(self, cells):
        # d1 == d2: the cells are scalar, the operator falls apart into
        # dimers at 1 -+ eps plus the two free end sites at 1
        h = assemble(realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, cells)),
                     CellParams(1.0, 1.0, 0.2))
        values = eigh_tridiagonal(h).values
        part = detect_bands(spacing_spectrum(values))
        assert [len(b) for b in part.bands] == [cells - 1, 2, cells - 1]
        assert not part.low_confidence
        assert [round(values[b.start], 12) for b in part.bands] == [0.8, 1.0, 1.2]

    def test_roundoff_spacings_never_split(self):
        levels = np.repeat([1.0, 2.0], 10) + np.tile([0.0, 2e-16, 4e-16, 2e-16, 0.0], 4)
        values = np.sort(levels)
        assert [len(b) for b in detect_bands(spacing_spectrum(values)).bands] == [10, 10]
        # all spacings at roundoff: no split at all, not a split at the largest
        flat = np.full(12, 2.0) + np.tile([0.0, 4.4e-16], 6)
        part = detect_bands(spacing_spectrum(np.sort(flat)))
        assert part.bands == (range(12),) and part.low_confidence


class TestClassifyStates:
    def build(self, columns, size=12):
        vectors = np.zeros((size, len(columns)))
        for k, kind in enumerate(columns):
            if kind == "loc":
                vectors[size // 2, k] = 1.0           # interior spike: reaches no edge
            else:
                vectors[:, k] = 1.0 / math.sqrt(size)  # uniform: reaches both edges
        return state_measures(vectors)

    def band(self, n):
        from iplsim.analysis import BandPartition
        return BandPartition(bands=(range(0, n),), gaps=())

    def test_prefix_b_span_suffix(self):
        measures = self.build(["loc", "loc", "ext", "ext", "ext", "loc", "loc"])
        labels = classify_states(measures, self.band(7))
        assert "".join(labels.labels) == "AABBBCC"
        assert labels.interior_localized == 0

    def test_interior_localized_states_stay_b(self):
        measures = self.build(["loc", "ext", "loc", "ext", "loc"])
        labels = classify_states(measures, self.band(5))
        assert "".join(labels.labels) == "ABBBC"
        assert labels.interior_localized == 1

    def test_all_localized_band_is_all_a(self):
        measures = self.build(["loc", "loc", "loc", "loc"])
        labels = classify_states(measures, self.band(4))
        assert "".join(labels.labels) == "AAAA"

    def test_all_delocalized_band_is_all_b(self):
        measures = self.build(["ext", "ext", "ext", "ext"])
        labels = classify_states(measures, self.band(4))
        assert "".join(labels.labels) == "BBBB"

    def test_tau_validation(self):
        measures = self.build(["ext", "ext", "ext", "ext"])
        for bad in (0.0, 1.0, -1e-3):
            with pytest.raises(ValueError):
                classify_states(measures, self.band(4), tau=bad)

    def test_fraction(self):
        measures = self.build(["loc", "ext", "ext", "loc"])
        labels = classify_states(measures, self.band(4))
        assert delocalized_fraction(labels) == pytest.approx(0.5)


class TestDetectMultiplets:
    def ladder_with_pairs(self):
        # spacings: 1, 1e-4, 1, 1e-4, 1  -> median ~1, pairs under 5%
        values = np.array([0.0, 1.0, 1.0001, 2.0, 2.0001, 3.0])
        from iplsim.analysis import BandPartition
        bands = BandPartition(bands=(range(0, 6),), gaps=())
        return values, bands

    def test_groups_pairs(self):
        values, bands = self.ladder_with_pairs()
        rep = detect_multiplets(spacing_spectrum(values), bands)
        assert [g.size for g in rep] == [1, 2, 2, 1]
        assert group_of(rep, 1).members == range(1, 3)
        assert group_of(rep, 5).size == 1
        with pytest.raises(IndexError):
            group_of(rep, 99)

    def test_shift_and_scale_invariance(self):
        values, bands = self.ladder_with_pairs()
        base = detect_multiplets(spacing_spectrum(values), bands)
        for scale, shift in ((7.0, 3.0), (0.001, -2.0), (123.4, 0.0)):
            transformed = detect_multiplets(spacing_spectrum(values * scale + shift), bands)
            assert transformed == base

    def test_bands_partition_groups(self):
        values = np.array([0.0, 0.00001, 0.1, 5.0, 5.1, 5.2])
        from iplsim.analysis import BandPartition
        bands = BandPartition(bands=(range(0, 3), range(3, 6)), gaps=((4.9, 2),))
        rep = detect_multiplets(spacing_spectrum(values), bands)
        for g in rep:
            span = range(bands.bands[g.band].start, bands.bands[g.band].stop)
            assert g.start in span and g.start + g.size - 1 in span

    def test_delta_validation(self):
        values, bands = self.ladder_with_pairs()
        with pytest.raises(ValueError):
            detect_multiplets(spacing_spectrum(values), bands, delta_rel=0.0)

    def test_exact_degeneracies_group(self):
        # eps = 0 with a constant profile: two 20-fold levels whose band
        # medians are 0, so only the rounding floor can join them
        spec = ProfileSpec("linear", 20, phi_start=0.3, phi_end=0.3)
        h = assemble(realize_profile(spec), CellParams(1.0, 2.0, 0.0))
        report = analyze(eigh_tridiagonal(h))
        assert [g.size for g in report.multiplets] == [20, 20]


class TestEigenstateMap:
    def system(self):
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 10))
        h = assemble(grid, CellParams(1.0, 2.0, 0.2))
        return eigh_tridiagonal(h)

    @staticmethod
    def expected(eig, indices):
        """The pixels from the float rows |psi| / max |psi|, made here in one piece."""
        rows = np.abs(eig.vectors[:, indices].T)
        rows = rows / rows.max(axis=1, keepdims=True)
        return np.rint(255 * rows).astype(np.uint8)

    def test_rows_descending_and_normalized(self):
        eig = self.system()
        pixels = eigenstate_map(eig, range(0, 5))
        assert pixels.dtype == np.uint8
        assert pixels.shape == (5, 20)
        assert np.array_equal(pixels, self.expected(eig, [4, 3, 2, 1, 0]))
        assert not np.array_equal(pixels, self.expected(eig, [0, 1, 2, 3, 4]))
        assert np.all(pixels.max(axis=1) == 255)
        with pytest.raises(ValueError):
            pixels[0, 0] = 0

    def test_row_content_matches_vectors(self):
        eig = self.system()
        pixels = eigenstate_map(eig, range(3, 6))
        assert np.array_equal(pixels, self.expected(eig, [5, 4, 3]))
        top = np.abs(eig.vectors[:, 5])
        assert np.array_equal(pixels[0], np.rint(255 * (top / top.max())).astype(np.uint8))

    def test_peak_is_the_pixels_plus_block_scratch(self, preset_eig):
        _, eig = preset_eig("fig2_3")
        assert eig.size > 2 * STATE_BLOCK  # the selection spans several blocks
        pixels, peak = traced_peak(eigenstate_map, eig, range(eig.size))
        assert pixels.shape == (eig.size, eig.size)
        assert np.array_equal(pixels, self.expected(eig, np.arange(eig.size)[::-1]))
        # a float raster would be 8 bytes per pixel; here at most two blocks are float
        assert peak <= pixels.nbytes + 2 * 8 * STATE_BLOCK * eig.size

    def test_selection_validation(self):
        eig = self.system()
        with pytest.raises(ValueError):
            eigenstate_map(eig, range(0, 0))
        with pytest.raises(ValueError):
            eigenstate_map(eig, range(18, 25))


class TestSmooth:
    def test_moving_average(self):
        out = smooth(np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]), window=5)
        assert np.allclose(out, [2.0, 3.0])

    def test_short_curve_passes_through(self):
        curve = np.array([1.0, 2.0])
        assert np.array_equal(smooth(curve, window=5), curve)


class TestMonotonicityChanges:
    def test_monotone_curves(self):
        assert monotonicity_changes(np.linspace(0, 1, 50)) == 0
        assert monotonicity_changes(np.linspace(1, 0, 50)) == 0
        assert monotonicity_changes(np.full(10, 3.0)) == 0

    def test_v_and_w_shapes(self):
        assert monotonicity_changes(np.array([2.0, 1.0, 0.0, 1.0, 2.0])) == 1
        w = np.array([0.0, 10.0, 2.0, 12.0, 4.0, 14.0])
        assert monotonicity_changes(w) == 4

    def test_insignificant_wiggle_is_flat(self):
        # the 0.5 dip is 2.5% of the range: dropped, runs merge
        curve = np.array([0.0, 10.0, 9.5, 20.0])
        assert monotonicity_changes(curve) == 0
        # same dip with a tighter threshold counts
        assert monotonicity_changes(curve, min_swing_rel=0.01) == 2

    def test_tilted_flat_then_arc(self):
        # gentle 4% down-tilt, then a dominant rise and fall: reads as one arc
        flat = np.linspace(1.0, 0.6, 20)
        arc_up = np.linspace(0.6, 10.0, 30)
        arc_down = np.linspace(10.0, 2.0, 15)
        curve = np.concatenate([flat, arc_up, arc_down])
        assert monotonicity_changes(curve) == 1

    def test_short_input(self):
        assert monotonicity_changes(np.array([1.0, 2.0])) == 0


class TestAnalyze:
    def test_end_to_end_consistency(self):
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 30))
        h = assemble(grid, CellParams(1.0, 2.0, 0.2))
        report = analyze(eigh_tridiagonal(h), expect_two_bands=True)
        assert report.size == 60
        assert report.measures.ipr.size == 60
        assert len(report.bands.bands) == 2
        covered = sum(g.size for g in report.multiplets)
        assert covered == 60

    def test_blocked_measures_match_one_pass(self):
        # 602 states span three measure blocks; joining them must change nothing
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 301))
        h = assemble(grid, CellParams(1.0, 2.0, 0.2))
        eig = eigh_tridiagonal(h)
        report = analyze(eig, expect_two_bands=True)
        whole = state_measures(eig.vectors)
        for name in ("ipr", "cfs", "com", "w_left", "w_right", "nodes"):
            assert np.array_equal(getattr(report.measures, name), getattr(whole, name))

    def test_warns_when_band_count_surprises(self):
        # a uniform chain (d1 == d2) has three levels, so three bands
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 10))
        h = assemble(grid, CellParams(1.0, 1.0, 0.2))
        with pytest.warns(UserWarning, match="expected 2 bands"):
            analyze(eigh_tridiagonal(h), expect_two_bands=True)

    def test_decoupled_cells_give_two_flat_bands(self, recwarn):
        # eps = 0: every cell has the exact levels d1 and d2, so the spectrum
        # is two flat bands whose roundoff spacings do not split them
        grid = realize_profile(ProfileSpec.linear(math.pi / 4, 1.0, 10))
        h = assemble(grid, CellParams(1.0, 2.0, 0.0))
        report = analyze(eigh_tridiagonal(h), expect_two_bands=True)
        assert report.bands.bands == (range(10), range(10, 20))
        assert not recwarn.list

    @pytest.mark.parametrize("field,value,match", [
        ("n_b", 0, "n_b must be at least 1"),
        ("tau", 0.0, "tau must lie in"),
        ("tau", 1.0, "tau must lie in"),
        ("tau", math.nan, "tau must be finite"),
        ("gamma", 0.0, "gamma must be positive"),
        ("gamma", -1.0, "gamma must be positive"),
        ("gamma", math.inf, "gamma must be finite"),
        ("delta_rel", 0.0, "delta_rel must be positive"),
        ("amplitude_floor", -1e-9, "amplitude_floor must not be negative"),
        ("amplitude_floor", math.inf, "amplitude_floor must be finite"),
    ])
    def test_thresholds_refuse_bad_values(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            AnalysisThresholds(**{field: value})

    def test_zero_amplitude_floor_allowed(self):
        assert AnalysisThresholds(amplitude_floor=0.0).amplitude_floor == 0.0

    def test_thresholds_round_trip(self):
        th = AnalysisThresholds(n_b=3, tau=1e-4, gamma=15.0, delta_rel=0.2,
                                amplitude_floor=1e-9)
        assert AnalysisThresholds(**asdict(th)) == th
