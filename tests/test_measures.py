import copy
import math
import pickle
import sys
import threading
import time
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iplsim import measures
from iplsim.eigensolver import STATE_BLOCK
from iplsim.measures import spacing_spectrum, state_measures

from memory import traced_peak
from nodes import sign_changes


def unit(index, size):
    v = np.zeros(size)
    v[index] = 1.0
    return v


def uniform(size):
    return np.full(size, 1.0 / math.sqrt(size))


def random_state(rng, size):
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v)


def measure(v, n_b=1):
    """Measures of one state: the batched pass on a one-column block."""
    return state_measures(np.asarray(v)[:, None], n_b=n_b)


def ipr(v):
    return float(measure(v).ipr[0])


def cfs(v):
    return float(measure(v).cfs[0])


def center_of_mass(v):
    return float(measure(v).com[0])


def edge_weights(v, n_b):
    m = measure(v, n_b)
    return float(m.w_left[0]), float(m.w_right[0])


normalized_vectors = st.integers(min_value=2, max_value=200).flatmap(
    lambda n: st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: random_state(np.random.default_rng(seed), n)
    )
)


class TestIpr:
    def test_uniform_is_one_over_n(self):
        assert ipr(uniform(64)) == pytest.approx(1 / 64)

    def test_single_site_is_one(self):
        assert ipr(unit(5, 64)) == 1.0

    @given(normalized_vectors)
    def test_bounds(self, v):
        x = ipr(v)
        assert 1.0 / v.size - 1e-12 <= x <= 1.0 + 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ipr(np.ones(4))


class TestCfs:
    def test_single_site_is_one(self):
        # every cumulative probability is 0 or 1, all phase factors at +1
        assert cfs(unit(0, 50)) == pytest.approx(1.0)
        assert cfs(unit(49, 50)) == pytest.approx(1.0)

    def test_uniform_is_half(self):
        # phases wind once around the circle and cancel, leaving the +1 offsets
        assert cfs(uniform(100)) == pytest.approx(0.5, abs=1e-12)

    @given(normalized_vectors)
    def test_bounds(self, v):
        assert 0.0 <= cfs(v) <= 1.0 + 1e-12

    @given(normalized_vectors)
    def test_insensitive_to_global_sign(self, v):
        assert cfs(-v) == pytest.approx(cfs(v), abs=1e-14)


class TestCenterOfMass:
    def test_single_site_is_its_index(self):
        assert center_of_mass(unit(0, 10)) == 1.0
        assert center_of_mass(unit(9, 10)) == 10.0

    def test_uniform_sits_at_midpoint(self):
        assert center_of_mass(uniform(11)) == pytest.approx(6.0)
        assert center_of_mass(uniform(10)) == pytest.approx(5.5)

    @given(normalized_vectors)
    def test_stays_inside_lattice(self, v):
        assert 1.0 - 1e-9 <= center_of_mass(v) <= v.size + 1e-9

    def test_mirror_antisymmetry(self):
        rng = np.random.default_rng(5)
        v = random_state(rng, 37)
        assert center_of_mass(v[::-1]) == pytest.approx(38 - center_of_mass(v))


class TestEdgeWeights:
    def test_unit_masses(self):
        wl, wr = edge_weights(unit(0, 12), 2)
        assert (wl, wr) == (1.0, 0.0)
        wl, wr = edge_weights(unit(11, 12), 2)
        assert (wl, wr) == (0.0, 1.0)

    def test_uniform_shares(self):
        wl, wr = edge_weights(uniform(100), 2)
        assert wl == pytest.approx(0.02)
        assert wr == pytest.approx(0.02)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            edge_weights(uniform(10), 0)
        with pytest.raises(ValueError):
            edge_weights(uniform(10), 6)

    @given(normalized_vectors, st.integers(min_value=1, max_value=4))
    def test_weights_are_probabilities(self, v, n_b):
        n_b = min(n_b, v.size // 2)
        wl, wr = edge_weights(v, n_b)
        assert 0.0 <= wl <= 1.0 + 1e-12
        assert 0.0 <= wr <= 1.0 + 1e-12


class TestSpacingSpectrum:
    def test_differences(self):
        s = spacing_spectrum(np.array([1.0, 1.5, 3.0]))
        assert np.allclose(s.spacings, [0.5, 1.5])

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            spacing_spectrum(np.array([2.0, 1.0]))
        # a NaN is not in ascending order either
        with pytest.raises(ValueError, match="sorted"):
            spacing_spectrum(np.array([0.0, np.nan, 1.0, 2.0, 3.0]))

    def test_clamps_float_noise_to_zero(self):
        s = spacing_spectrum(np.array([1.0, 1.0 - 1e-15]))
        assert s.spacings[0] == 0.0

    def test_frozen(self):
        s = spacing_spectrum(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.spacings[0] = 5.0

    def test_floor_is_a_few_ulps_of_the_largest_magnitude(self):
        s = spacing_spectrum(np.array([-3.0, 1.0, 2.0]))
        assert s.floor == 4 * np.spacing(3.0)
        assert spacing_spectrum(np.array([0.0, 0.0])).floor == 4 * np.spacing(0.0)


def reference_measures(v, n_b):
    """The documented formulas applied to one vector, as a reference."""
    prob = v * v
    angles = 2.0 * np.pi * np.cumsum(prob)
    friedel = np.hypot(np.sum(np.cos(angles)) + v.size, np.sum(np.sin(angles)))
    return (float(np.sum(prob * prob)), float(friedel) / (2 * v.size),
            float(np.sum(np.arange(1, v.size + 1) * prob)),
            float(np.sum(prob[:n_b])), float(np.sum(prob[v.size - n_b:])),
            sign_changes(v, 1e-8))


def textbook_ipr_cfs(block):
    """IPR as sum psi**4 and CFS from complex phase factors, summed in the same order."""
    rows = np.ascontiguousarray(block.T)
    phases = np.exp(2j * np.pi * np.cumsum(rows**2, axis=1)) + 1.0
    return np.sum(rows**4, axis=1), np.abs(np.sum(phases, axis=1)) / (2 * rows.shape[1])


def test_state_measures_bundles_consistently():
    rng = np.random.default_rng(11)
    block = np.column_stack([random_state(rng, 300) for _ in range(7)])
    m = state_measures(block, n_b=3)
    # each state is reduced along its own contiguous row, so every value is
    # bit-identical to the one-vector formula on that column
    for k in range(7):
        got = (m.ipr[k], m.cfs[k], m.com[k], m.w_left[k], m.w_right[k], m.nodes[k])
        assert got == reference_measures(block[:, k], 3)
    with pytest.raises(ValueError):
        m.ipr[0] = 0.5


def assert_matches_textbook(block):
    m = state_measures(block)
    ipr, cfs = textbook_ipr_cfs(block)
    # prob * prob and the real cos/sin sums differ from psi**4 and the complex
    # exponentials only by rounding
    assert np.max(np.abs(m.ipr - ipr) / ipr) <= 2e-15
    assert np.max(np.abs(m.cfs - cfs) / cfs) <= 2e-15


def test_ipr_cfs_match_textbook_formulas_on_fig13(preset_eig):
    _, eig = preset_eig("fig13")
    assert_matches_textbook(eig.vectors[:, :128])
    assert_matches_textbook(eig.vectors[:, eig.size // 2 - 64:eig.size // 2 + 64])


def measured(*args, **kwargs):
    """state_measures, with the first read of a profile measure running its deferred walk."""
    m = state_measures(*args, **kwargs)
    m.ipr
    return m


class TestDeferredProfileMeasures:
    """state_measures computes the norm check and edge weights; the rest waits for a read."""

    def counting(self, monkeypatch, delay=0.0):
        calls = []
        walk = measures._profile_walk

        def counted(*args):
            calls.append(threading.get_ident())
            time.sleep(delay)  # long enough for every reader to arrive during the walk
            return walk(*args)

        monkeypatch.setattr(measures, "_profile_walk", counted)
        return calls

    def test_one_walk_on_the_first_read_of_any_profile_measure(self, monkeypatch):
        calls = self.counting(monkeypatch)
        block = np.column_stack([random_state(np.random.default_rng(k), 50) for k in range(5)])
        m = state_measures(block, n_b=3)
        assert m.w_left.tolist() == [reference_measures(block[:, k], 3)[3] for k in range(5)]
        assert m.w_right[0] == reference_measures(block[:, 0], 3)[4]
        assert calls == []
        assert m.nodes.dtype == np.int64
        assert len(calls) == 1
        assert [f.name for f in fields(m)] == ["ipr", "cfs", "com", "w_left", "w_right", "nodes"]
        for f in fields(m):
            assert not getattr(m, f.name).flags.writeable
        assert len(calls) == 1
        with pytest.raises(AttributeError, match="'StateMeasures' object has no attribute 'iqr'"):
            m.iqr

    def test_the_walk_drops_the_vectors(self):
        block = np.column_stack([uniform(8), unit(3, 8)])
        held = weakref.ref(block)
        m = state_measures(block)
        del block
        assert held() is not None  # the walk has yet to read them
        assert m.ipr.tolist() == pytest.approx([1 / 8, 1.0])
        assert held() is None

    def test_concurrent_first_reads_walk_once(self, monkeypatch):
        calls = self.counting(monkeypatch, delay=0.2)
        block = np.column_stack([random_state(np.random.default_rng(k), 400) for k in range(64)])
        want = measured(block)
        m = state_measures(block)
        barrier = threading.Barrier(4)
        got = [None] * 4

        def read(i):
            barrier.wait()
            got[i] = getattr(m, measures.PROFILE_MEASURES[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 2  # want's walk and one of m's
        for name, values in zip(measures.PROFILE_MEASURES, got):
            assert np.array_equal(values, getattr(want, name))

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda m: pickle.loads(pickle.dumps(m))])
    def test_a_copy_holds_all_six_measures(self, duplicate):
        block = np.column_stack([random_state(np.random.default_rng(k), 30) for k in range(3)])
        want, m = measured(block), state_measures(block)
        got = duplicate(m)
        for f in fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
        assert np.array_equal(m.nodes, want.nodes)  # the copy ran the original's walk

    def test_a_failed_walk_is_run_again_on_the_next_read(self, monkeypatch):
        m = state_measures(np.column_stack([uniform(8)]))
        walk = measures._profile_walk

        def failing(*args):
            raise MemoryError("no scratch")

        monkeypatch.setattr(measures, "_profile_walk", failing)
        with pytest.raises(MemoryError):
            m.cfs
        monkeypatch.setattr(measures, "_profile_walk", walk)
        assert m.cfs[0] == pytest.approx(0.5)


def test_block_peak_is_two_float_buffers(preset_eig):
    _, eig = preset_eig("fig13")
    block = eig.vectors[:, :STATE_BLOCK]
    _, peak = traced_peak(measured, block)
    # prob and its cumsum; the node pass's magnitudes and flags reuse the same two buffers
    assert peak <= 2.1 * block.nbytes


def test_whole_matrix_peak_is_one_blocks_scratch(preset_eig):
    _, eig = preset_eig("fig13")
    m, peak = traced_peak(measured, eig.vectors)
    outputs = sum(getattr(m, f.name).nbytes for f in fields(m))
    # the two float buffers of one STATE_BLOCK, shared out over the threads, never N x N
    assert peak <= 2.2 * 8 * STATE_BLOCK * eig.size + outputs


@pytest.mark.parametrize("floor", [0.0, 1e-8])
def test_nodes_match_the_one_vector_rule_on_fig13(preset_eig, floor):
    _, eig = preset_eig("fig13")
    nodes = state_measures(eig.vectors, amplitude_floor=floor).nodes
    assert nodes.tolist() == [sign_changes(eig.vectors[:, k], floor) for k in range(eig.size)]


@pytest.mark.parametrize("seed", range(4))
def test_ipr_cfs_match_textbook_formulas_on_random_blocks(seed):
    rng = np.random.default_rng(seed)
    sites = int(rng.integers(2, 2000))
    assert_matches_textbook(np.column_stack([random_state(rng, sites) for _ in range(16)]))


@pytest.mark.parametrize("sites", [3, 128, 1802, 4001])
def test_norm_check_reads_the_bits_of_linalg_norm(sites):
    # state_measures checks sqrt(sum p) from the p it measures with
    rows = np.random.default_rng(sites).normal(size=(16, sites))
    assert np.array_equal(np.sqrt(np.sum(rows * rows, axis=1)), np.linalg.norm(rows, axis=1))


def test_state_measures_input_checks():
    with pytest.raises(ValueError, match="block"):
        state_measures(uniform(10))
    with pytest.raises(ValueError, match="normalized"):
        state_measures(np.column_stack([uniform(10), np.ones(10)]))
    # a NaN norm is no closer to 1 than any other
    with pytest.raises(ValueError, match="normalized"):
        state_measures(np.full((4, 1), np.nan))
    block = np.column_stack([uniform(4), uniform(4)])
    block[1, 1] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        state_measures(block)
