"""Oscillatory operators: assembly oracles, chirp covariance, slicing."""

from fractions import Fraction

import numpy as np
import pytest

from gaborlab.fio import (
    apply_chirp,
    build_hard_fio,
    fio_operator,
    fio_slice_family,
    oscillatory,
    quadratic_phase_table,
)
from gaborlab.frames import GaborSystem, canonical_tight_window
from gaborlab.mixednorm import ExponentVector, Permutation, mixed_modulation_norm
from gaborlab.operators import PhaseTable, QuadraticPhase, SymbolTable
from gaborlab.signals import periodized_gaussian, random_signal, stft


def _tables(n, rank, seed):
    rng = np.random.default_rng(seed)
    sym = SymbolTable(n, rank, rng.standard_normal((n,) * rank)
                      + 1j * rng.standard_normal((n,) * rank))
    phase = PhaseTable(n, rank, rng.random((n,) * rank))
    return sym, phase


def dft_matrix(n):
    """Unitary DFT matrix F[xi, t] = n^(-1/2) w^(-xi t), the dense reference
    for the numpy.fft transform of the easy form."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def easy_fio_oracle(a, phi):
    """A f(x) = sum_xi a e^{2 pi i phi} fhat(xi), assembled entry by entry."""
    n = a.n
    out = np.zeros((n, n), dtype=np.complex128)
    for x in range(n):
        for t in range(n):
            acc = 0.0
            for xi in range(n):
                acc += (a.values[x, xi]
                        * np.exp(2j * np.pi * phi.values[x, xi])
                        * np.exp(-2j * np.pi * xi * t / n) / np.sqrt(n))
            out[x, t] = acc
    return out


def hard_fio_oracle(b, psi):
    n = b.n
    out = np.zeros((n, n), dtype=np.complex128)
    for x in range(n):
        for y in range(n):
            acc = 0.0
            for xi in range(n):
                acc += (b.values[x, y, xi]
                        * np.exp(2j * np.pi * psi.values[x, y, xi]))
            out[x, y] = acc / np.sqrt(n)
    return out


class TestAssembly:
    @pytest.mark.parametrize("n", [8, 16])
    def test_easy_matches_oracle(self, n):
        a, phi = _tables(n, 2, n)
        got = fio_operator(oscillatory(a, phi)).entries
        assert np.max(np.abs(got - easy_fio_oracle(a, phi))) <= 1e-12 * n

    @pytest.mark.parametrize("n", [8, 16])
    def test_easy_factorization(self, n):
        a, phi = _tables(n, 2, n + 1)
        lhs = fio_operator(oscillatory(a, phi)).entries
        rhs = oscillatory(a, phi) @ dft_matrix(n)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16])
    def test_hard_matches_oracle(self, n):
        b, psi = _tables(n, 3, n + 2)
        got = build_hard_fio(b, psi).entries
        assert np.max(np.abs(got - hard_fio_oracle(b, psi))) <= 1e-12 * n

    @pytest.mark.parametrize("n", [8, 16])
    def test_hard_reduces_to_easy(self, n):
        """b(x,y,xi) = a(x,xi), psi = phi(x,xi) - y xi/n collapses exactly."""
        a, phi = _tables(n, 2, n + 3)
        y, xi = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        b = SymbolTable(n, 3, np.broadcast_to(a.values[:, None, :], (n, n, n)))
        psi = PhaseTable(n, 3, phi.values[:, None, :] - (y * xi / n)[None, :, :])
        lhs = fio_operator(oscillatory(a, phi)).entries
        rhs = build_hard_fio(b, psi).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * n

    def test_pseudodifferential_phase_gives_scaled_identity(self):
        n = 8
        x, xi = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        a = SymbolTable(n, 2, np.ones((n, n)))
        phi = PhaseTable(n, 2, (x * xi % n) / n)
        got = fio_operator(oscillatory(a, phi)).entries
        assert np.max(np.abs(got - np.sqrt(n) * np.eye(n))) <= 1e-12 * n

    def test_rank_validation(self):
        a, phi = _tables(8, 2, 0)
        with pytest.raises(ValueError):
            build_hard_fio(a, phi)

    @pytest.mark.parametrize("rank,oracle", [(2, easy_fio_oracle), (3, hard_fio_oracle)])
    def test_fio_operator_form_follows_rank(self, rank, oracle):
        sym, phase = _tables(8, rank, 40 + rank)
        got = fio_operator(oscillatory(sym, phase)).entries
        assert np.max(np.abs(got - oracle(sym, phase))) <= 1e-12 * 8

    @pytest.mark.parametrize("rank", [1, 4])
    def test_fio_operator_rejects_other_ranks(self, rank):
        prod = oscillatory(*_tables(3, rank, 0))  # tables of any rank construct
        assert prod.shape == (3,) * rank
        with pytest.raises(ValueError, match="rank 2 or 3"):
            fio_operator(prod)

    def test_oscillatory_rejects_mismatched_tables(self):
        a, _ = _tables(8, 2, 0)
        _, psi = _tables(8, 3, 0)
        with pytest.raises(ValueError, match="mismatched"):
            oscillatory(a, psi)


class TestChirps:
    @pytest.mark.parametrize("n", [8, 16])
    def test_covariance_all_valid_chirps(self, n):
        """|V_g(S_M f)(k, l)| = |V_(S_-M g) f(k, l - M k)| for every class
        of symmetric integer M (chirps depend on M mod 2n)."""
        rng = np.random.default_rng(n)
        f = random_signal(n, 1, rng)
        g = random_signal(n, 1, rng)
        for m_val in range(2 * n):
            m = np.array([[m_val]])
            lhs = np.abs(stft(apply_chirp(f, m), g))
            base = np.abs(stft(f, apply_chirp(g, -m)))
            rhs = np.empty_like(base)
            for k in range(n):
                rhs[k] = np.roll(base[k], (m_val * k) % n)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12, m_val

    def test_parity_check_odd_n(self):
        f = random_signal(9, 1, np.random.default_rng(0))
        apply_chirp(f, np.array([[2]]))  # even entry fine on odd n
        with pytest.raises(ValueError):
            apply_chirp(f, np.array([[1]]))

    def test_chirp_is_unimodular(self):
        f = random_signal(8, 1, np.random.default_rng(1))
        chirped = apply_chirp(f, np.array([[3]]))
        assert np.allclose(np.abs(chirped.values), np.abs(f.values))


class TestQuadraticPhase:
    def test_table_matches_direct_formula(self):
        n = 6
        qp = QuadraticPhase(0.25, np.array([1, -2]), np.array([[2, 3], [3, -4]]))
        table = quadratic_phase_table(qp, n).values
        for w in np.ndindex(n, n):
            wv = np.array(w, dtype=float)
            want = (0.25 + qp.q @ wv / n + wv @ qp.m @ wv / (2 * n)) % 1.0
            assert np.isclose(table[w] % 1.0, want % 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [6, 9, 10, 21, 255])
    def test_chirp_depends_on_m_mod_2n_bit_for_bit(self, n):
        f = random_signal(n, 2, np.random.default_rng(n))
        m = np.array([[2 * n - 2, 2 * n - 1], [2 * n - 1, 4]])
        for i in range(2):
            shifted = m.copy()
            shifted[i, i] += 2 * n
            assert np.array_equal(apply_chirp(f, m).values, apply_chirp(f, shifted).values)

    @pytest.mark.parametrize("rank,n", [(1, 255), (1, 511), (2, 15), (2, 33), (3, 7)])
    def test_table_matches_exact_rationals(self, rank, n):
        # Entries of M up to 2n, the diagonal even so that every n is allowed.
        rng = np.random.default_rng([rank, n])
        upper = np.triu(rng.integers(0, 2 * n + 1, size=(rank, rank)), 1)
        m = upper + upper.T + np.diag(2 * rng.integers(0, n + 1, size=rank))
        qp = QuadraticPhase(0.25, rng.integers(-n, n + 1, size=rank), m)
        table = quadratic_phase_table(qp, n).values
        for w in np.ndindex(table.shape):
            wv = np.array(w)
            exact = (Fraction(1, 4) + Fraction(int(qp.q @ wv), n)
                     + Fraction(int(wv @ m @ wv), 2 * n)) % 1
            err = abs(table[w] - float(exact))
            assert min(err, 1 - err) <= 1e-15, (w, table[w], exact)

    def test_modulation_absorption(self):
        """Affine phases leave the mixed modulation norm invariant."""
        n = 8
        rng = np.random.default_rng(9)
        b = SymbolTable(n, 3, rng.standard_normal((n, n, n))
                        + 1j * rng.standard_normal((n, n, n)))
        w = periodized_gaussian(n)
        c = Permutation((2, 5, 1, 4, 3, 6))
        exps = ExponentVector((2, 2, 1.5, 1.5, 1, np.inf))
        base = mixed_modulation_norm(b.values, w, c, exps)
        for q in ([1, 0, 2], [-3, 4, 0]):
            aff = QuadraticPhase(0.3, np.array(q), np.zeros((3, 3), dtype=int))
            phase = quadratic_phase_table(aff, n)
            got = mixed_modulation_norm(oscillatory(b, phase), w, c, exps)
            assert abs(got - base) <= 1e-10 * base


class TestSlicing:
    def test_decomposition_reproduces_hard_fio(self):
        n = 8
        base = GaborSystem(periodized_gaussian(n), 2, 2)
        sys = GaborSystem(canonical_tight_window(base), 2, 2)
        for seed in range(10):
            b, psi = _tables(n, 3, 500 + seed)
            weights, ops = fio_slice_family(b, psi, sys)
            acc = np.zeros((n, n), dtype=np.complex128)
            for i in range(weights.shape[0]):
                for j in range(weights.shape[1]):
                    acc += np.conj(weights[i, j]) * ops[i, j].entries
            target = build_hard_fio(b, psi).entries
            assert np.max(np.abs(acc - target)) <= 1e-10

    def test_rejects_non_frame(self):
        n = 8
        sys = GaborSystem(periodized_gaussian(n), 4, 4)
        b, psi = _tables(n, 3, 0)
        from gaborlab.frames import NotAFrameError
        with pytest.raises(NotAFrameError):
            fio_slice_family(b, psi, sys)
