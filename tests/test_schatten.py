"""Schatten norms, singular spectra, and the orthonormal pair functional."""

import numpy as np
import pytest

from gaborlab.operators import OperatorMatrix
from gaborlab.schatten import pair_functional, schatten_norm, singular_values


def _random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return OperatorMatrix(rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSpectrum:
    def test_diagonal_matrix(self):
        a = OperatorMatrix(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(singular_values(a), [3.0, 2.0, 1.0])


class TestOperatorMatrix:
    def test_d2_operator(self):
        # A 16 x 16 operator on Z_4^2.  The singular values of a Kronecker
        # product are the products of its factors', so its S^p norms multiply.
        a, b = _random_matrix(4, 1), _random_matrix(4, 2)
        ab = OperatorMatrix(np.kron(a.entries, b.entries))
        for p in (1.0, 1.5, 2.0, np.inf):
            want = schatten_norm(a, p) * schatten_norm(b, p)
            assert schatten_norm(ab, p) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 3, 3)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(np.zeros(shape))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"nonempty .* shape \(0, 0\)"):
            OperatorMatrix(np.zeros((0, 0)))


class TestSchattenNorm:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_two_norm_is_frobenius(self, n):
        a = _random_matrix(n, n)
        frob = np.linalg.norm(a.entries.ravel())
        assert abs(schatten_norm(a, 2.0) - frob) <= 1e-12 * frob

    def test_one_norm_is_trace_of_abs(self):
        a = _random_matrix(6, 1)
        s = np.linalg.svd(a.entries, compute_uv=False)
        assert np.isclose(schatten_norm(a, 1.0), s.sum())

    def test_monotone_in_p(self):
        a = _random_matrix(8, 2)
        vals = [schatten_norm(a, p) for p in (1.0, 1.25, 1.5, 2.0)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed):
        a = _random_matrix(8, 50 + seed)
        u = _random_unitary(8, 60 + seed)
        v = _random_unitary(8, 70 + seed)
        b = OperatorMatrix(u @ a.entries @ v)
        for p in (1.0, 1.5, 2.0):
            assert abs(schatten_norm(a, p) - schatten_norm(b, p)) <= 1e-10

    @pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
    def test_interpolation_inequality(self, p):
        """||A||_p <= ||A||_1^(2/p - 1) ||A||_2^(2 - 2/p)."""
        for seed in range(50):
            a = _random_matrix(8, 100 + seed)
            lhs = schatten_norm(a, p)
            rhs = (schatten_norm(a, 1.0) ** (2.0 / p - 1.0)
                   * schatten_norm(a, 2.0) ** (2.0 - 2.0 / p))
            assert rhs - lhs >= -1e-10 * rhs

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            schatten_norm(_random_matrix(4, 0), 0.5)


class TestPairFunctional:
    def test_bounded_by_schatten(self):
        a = _random_matrix(8, 7)
        for p in (1.0, 1.5, 2.0):
            norm = schatten_norm(a, p)
            for seed in range(100):
                u = _random_unitary(8, 1000 + seed)
                v = _random_unitary(8, 2000 + seed)
                val = pair_functional(a, u.T, v.T, p)
                assert val <= norm + 1e-10

    def test_equality_at_singular_vectors(self):
        a = _random_matrix(8, 8)
        u, s, vh = np.linalg.svd(a.entries)
        # A (v_k) = s_k u_k, so pairing right/left singular vectors attains.
        val = pair_functional(a, vh.conj(), u.T, 1.5)
        assert abs(val - schatten_norm(a, 1.5)) <= 1e-10

    def test_diagonal_with_standard_basis(self):
        d = np.array([3.0, 1.0, 2.0])
        a = OperatorMatrix(np.diag(d).astype(complex))
        basis = np.eye(3, dtype=complex)
        val = pair_functional(a, basis, basis, 1.0)
        assert np.isclose(val, d.sum())

    def test_rejects_non_orthonormal(self):
        a = _random_matrix(4, 9)
        bad = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError):
            pair_functional(a, bad, bad, 2.0)
