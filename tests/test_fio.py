"""Oscillatory operators: assembly oracles, chirp covariance, slicing."""

import numpy as np
import pytest

from gaborlab.fio import (
    apply_chirp,
    build_easy_fio,
    build_hard_fio,
    dft_matrix,
    easy_kernel,
    fio_slice_family,
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
        got = build_easy_fio(a, phi).entries
        assert np.max(np.abs(got - easy_fio_oracle(a, phi))) <= 1e-12 * n

    @pytest.mark.parametrize("n", [8, 16])
    def test_easy_factorization(self, n):
        a, phi = _tables(n, 2, n + 1)
        lhs = build_easy_fio(a, phi).entries
        rhs = easy_kernel(a, phi).values @ dft_matrix(n)
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
        lhs = build_easy_fio(a, phi).entries
        rhs = build_hard_fio(b, psi).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * n

    def test_pseudodifferential_phase_gives_scaled_identity(self):
        n = 8
        x, xi = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        a = SymbolTable(n, 2, np.ones((n, n)))
        phi = PhaseTable(n, 2, (x * xi % n) / n)
        got = build_easy_fio(a, phi).entries
        assert np.max(np.abs(got - np.sqrt(n) * np.eye(n))) <= 1e-12 * n

    def test_rank_validation(self):
        a, phi = _tables(8, 2, 0)
        with pytest.raises(ValueError):
            build_hard_fio(a, phi)


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
            lhs = np.abs(stft(apply_chirp(f, m), g).values)
            base = np.abs(stft(f, apply_chirp(g, -m)).values)
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
        n, rank = 6, 2
        qp = QuadraticPhase(0.25, np.array([1, -2]), np.array([[2, 3], [3, -4]]))
        table = quadratic_phase_table(qp, rank, n).values
        for w in np.ndindex(n, n):
            wv = np.array(w, dtype=float)
            want = (0.25 + qp.q @ wv / n + wv @ qp.m @ wv / (2 * n)) % 1.0
            assert np.isclose(table[w] % 1.0, want % 1.0, atol=1e-12)

    def test_modulation_absorption(self):
        """Affine phases leave the mixed modulation norm invariant."""
        n = 8
        rng = np.random.default_rng(9)
        b = SymbolTable(n, 3, rng.standard_normal((n, n, n))
                        + 1j * rng.standard_normal((n, n, n)))
        w = periodized_gaussian(n)
        c = Permutation((2, 5, 1, 4, 3, 6))
        exps = ExponentVector((2, 2, 1.5, 1.5, 1, np.inf))
        base = mixed_modulation_norm(b, w, c, exps)
        for q in ([1, 0, 2], [-3, 4, 0]):
            aff = QuadraticPhase(0.3, np.array(q), np.zeros((3, 3), dtype=int))
            phase = quadratic_phase_table(aff, 3, n)
            modulated = SymbolTable(n, 3, b.values * phase.unit_table())
            got = mixed_modulation_norm(modulated, w, c, exps)
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
