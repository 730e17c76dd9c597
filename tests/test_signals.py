"""Signal layer: shifts, DFT unitarity, STFT identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.signals import (
    FiniteSignal,
    delta,
    dft,
    periodized_gaussian,
    random_signal,
    stft,
    tf_shift,
)
from gaborlab.mixednorm import tensor_window


def _rand(n, dim, seed):
    return random_signal(n, dim, np.random.default_rng(seed))


def stft_reference(f, g):
    """Direct double loop, d = 1 only."""
    n = f.n
    out = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            acc = 0.0
            for t in range(n):
                acc += (f.values[t] * np.conj(g.values[(t - k) % n])
                        * np.exp(-2j * np.pi * l * t / n))
            out[k, l] = acc / np.sqrt(n)
    return out


class TestFiniteSignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteSignal(4, 1, np.zeros(5))
        with pytest.raises(ValueError):
            FiniteSignal(4, 1, [1.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            FiniteSignal(0, 1, [])

    def test_norm_inner(self):
        f = _rand(8, 1, 0)
        assert np.isclose(f.norm() ** 2, f.inner(f).real)
        g = _rand(8, 1, 1)
        assert np.isclose(f.inner(g), np.conj(g.inner(f)))

    def test_grid_row_major(self):
        f = FiniteSignal(2, 2, [0, 1, 2, 3])
        assert f.grid[1, 0] == 2


class TestShifts:
    def test_delta_shift(self):
        f = tf_shift(delta(8), 3, 0)
        assert f.values[3] == 1.0 and np.count_nonzero(f.values) == 1

    def test_modulation_phase(self):
        f = tf_shift(FiniteSignal(8, 1, np.ones(8)), 0, 2)
        t = np.arange(8)
        assert np.allclose(f.values, np.exp(2j * np.pi * 2 * t / 8))

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_commutation(self, k1, l1, k2, l2):
        """M_l T_k and T_k M_l differ by the phase w^(l k)."""
        f = _rand(8, 1, 5)
        a = tf_shift(tf_shift(f, k1, 0), 0, l1)  # M_l1 T_k1 f
        b = tf_shift(tf_shift(f, 0, l1), k1, 0)  # T_k1 M_l1 f
        phase = np.exp(2j * np.pi * l1 * k1 / 8)
        assert np.allclose(a.values, phase * b.values)
        del k2, l2

    def test_multidim_shift(self):
        f = _rand(4, 2, 7)
        g = tf_shift(tf_shift(f, (1, 2), (0, 0)), (0, 0), (3, 1))
        h = tf_shift(f, (1, 2), (3, 1))
        assert np.allclose(g.values, h.values)


class TestDFT:
    @pytest.mark.parametrize("n,dim", [(8, 1), (16, 1), (64, 1), (4, 2), (4, 3)])
    def test_unitary_and_inverse(self, n, dim):
        f = _rand(n, dim, n + dim)
        assert abs(dft(f).norm() - f.norm()) < 1e-12 * f.norm()
        # F^2 is the reflection f(-t), so F^4 is the identity.
        reflected = np.roll(np.flip(f.grid), 1, axis=tuple(range(dim)))
        assert np.allclose(dft(dft(f)).grid, reflected, atol=1e-12)

    def test_delta_to_constant(self):
        n = 8
        assert np.allclose(dft(delta(n)).values, np.full(n, n ** -0.5))

    def test_shift_modulation_exchange(self):
        f = _rand(8, 1, 3)
        lhs = dft(tf_shift(f, 2, 0)).values
        rhs = tf_shift(dft(f), 0, -2).values
        assert np.allclose(lhs, rhs)


class TestSTFT:
    def test_matches_reference(self):
        f, g = _rand(6, 1, 0), _rand(6, 1, 1)
        assert np.allclose(stft(f, g), stft_reference(f, g), atol=1e-12)

    @pytest.mark.parametrize("dim,window_dim", [(2, 2), (2, 1), (3, 1)],
                             ids=["general-d2", "tensor-d2", "tensor-d3"])
    def test_matches_inner_products(self, dim, window_dim):
        """A 1-D window on Z_n^d acts as its tensor power."""
        n = 4
        f, g = _rand(n, dim, 2), _rand(n, window_dim, 3)
        full = g if window_dim == dim else tensor_window(g, dim)
        v = stft(f, g)
        scale = n ** (dim / 2)
        for k in np.ndindex((n,) * dim):
            for l in np.ndindex((n,) * dim):
                expect = f.inner(tf_shift(full, k, l)) / scale
                assert abs(v[k + l] - expect) <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("n,dim", [(7, 1), (6, 2), (5, 3)])
    def test_separable_matches_general(self, n, dim):
        f, g = _rand(n, dim, 4), _rand(n, 1, 5)
        sep = stft(f, g)
        gen = stft(f, tensor_window(g, dim))
        assert np.max(np.abs(sep - gen)) <= 1e-12 * np.max(np.abs(gen))

    def test_window_dimension_mismatch(self):
        with pytest.raises(ValueError):
            stft(_rand(4, 3, 0), _rand(4, 2, 1))

    @pytest.mark.parametrize("n,dim", [(8, 1), (16, 1), (64, 1), (4, 2)])
    def test_moyal(self, n, dim):
        f, g = _rand(n, dim, 11), _rand(n, dim, 13)
        total = np.sum(np.abs(stft(f, g)) ** 2)
        assert np.isclose(total, f.norm() ** 2 * g.norm() ** 2, rtol=1e-12)

    def test_group_mismatch(self):
        with pytest.raises(ValueError):
            stft(_rand(8, 1, 0), _rand(4, 1, 0))

    def test_result_depends_only_on_arguments(self):
        """A transform against another window in between changes nothing."""
        f = _rand(8, 1, 0)
        g1, g2 = _rand(8, 1, 1), _rand(8, 1, 2)
        v1 = stft(f, g1).copy()
        stft(f, g2)
        assert np.array_equal(stft(f, g1), v1)


class TestHelpers:
    def test_periodized_gaussian_unit_norm(self):
        for n in (8, 16, 33):
            assert np.isclose(periodized_gaussian(n).norm(), 1.0)
