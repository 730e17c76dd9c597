"""Oscillatory integral operators on Z_n.

Two forms, both built by fio_operator from the symbol-phase product:

* "easy":  A f(x) = sum_xi a(x, xi) exp(2 pi i phi(x, xi)) f_hat(xi),
  assembled as K @ F with K = a * exp(2 pi i phi) and F the unitary DFT,
  taken from numpy.fft along the xi axis of K.
* "hard":  kernel k(x, y) = n^(-1/2) sum_xi b(x, y, xi) exp(2 pi i psi),
  acting by A f(x) = sum_y k(x, y) f(y).

The n^(-1/2) on the xi-sum makes a separable rank-3 symbol with phase
psi(x, y, xi) = phi(x, xi) - y xi / n collapse exactly to the easy form.

Also here: chirp multipliers exp(pi i t.Mt / n), quadratic phase tables,
and the lattice slicing family that decomposes a hard operator against a
Gabor frame on the xi variable.
"""

from __future__ import annotations

import numpy as np

from .frames import GaborSystem, analyze, dual_window
from .operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from .signals import FiniteSignal, shifted_window, stft_axis

__all__ = [
    "oscillatory",
    "fio_operator",
    "build_hard_fio",
    "apply_chirp",
    "quadratic_phase_table",
    "fio_slice_family",
]


def oscillatory(sym: SymbolTable, phase: PhaseTable) -> np.ndarray:
    """The product sym * exp(2 pi i phase) of two tables of one shape."""
    if (sym.n, sym.rank) != (phase.n, phase.rank):
        raise ValueError("symbol and phase tables have mismatched shapes")
    return sym.values * phase.unit_table()


def fio_operator(prod: np.ndarray) -> OperatorMatrix:
    """Easy form prod @ F of a rank-2 product, hard form n^(-1/2) sum_xi prod of a rank-3 one."""
    if prod.ndim == 2:
        return OperatorMatrix(np.fft.fft(prod, axis=1, norm="ortho"))
    if prod.ndim == 3:
        return OperatorMatrix(prod.sum(axis=2) / np.sqrt(len(prod)))
    raise ValueError(f"an FIO product has rank 2 or 3, got {prod.ndim}")


def build_hard_fio(b: SymbolTable, psi: PhaseTable) -> OperatorMatrix:
    if b.rank != 3:
        raise ValueError("hard form takes rank-3 tables")
    return fio_operator(oscillatory(b, psi))


def apply_chirp(f: FiniteSignal, m) -> FiniteSignal:
    """S_M f(t) = exp(pi i t.Mt / n) f(t), M symmetric integer."""
    m = np.atleast_2d(np.asarray(m, dtype=np.int64))
    qp = QuadraticPhase(0.0, np.zeros(m.shape[0], dtype=np.int64), m)
    if qp.rank != f.dim:
        raise ValueError("chirp matrix dimension must match the signal")
    return FiniteSignal(f.n, f.dim, quadratic_phase_table(qp, f.n).unit_table() * f.grid)


def quadratic_phase_table(qp: QuadraticPhase, n: int) -> PhaseTable:
    """Phase table psi(w) = c0 + q.w/n + w.Mw/(2n) of rank qp.rank, reduced mod 1."""
    qp.check_well_defined(n)
    # psi - c0 = (2 q.w + w.Mw) / (2n).  Reducing q mod n and M mod 2n moves it by
    # an integer, so the numerator is taken exactly in int64 (it stays below
    # 2 rank n^2 (rank n + 1)) and divided once, after its own reduction mod 2n.
    # M is symmetric, so 2 q.w + w.Mw = sum_i w_i (2 q_i + M_ii w_i + 2 sum_{j>i} M_ij w_j),
    # summed from the last axis in over ranges broadcast along each axis.
    r, q, m = qp.rank, qp.q % n, qp.m % (2 * n)
    w = [np.arange(n).reshape((n,) + (1,) * (r - 1 - i)) for i in range(r)]
    num = 0
    for i in reversed(range(r)):
        cross = 2 * sum(m[i, j] * w[j] for j in range(i + 1, r))
        num = w[i] * (2 * q[i] + m[i, i] * w[i] + cross) + num
    vals = (qp.c0 + (num % (2 * n)) / (2 * n)) % 1.0
    return PhaseTable(n, r, vals)


def fio_slice_family(b: SymbolTable, psi: PhaseTable, sys: GaborSystem) -> tuple:
    """Frame slicing of a hard FIO along the xi variable.

    Returns (weights, ops) where weights[i, j] = <1, M_l T_k g> over the
    lattice and ops[i, j] is the integral operator with the xi variable
    paired against the shifted dual window: the lattice coefficients in xi
    of the constant 1, and of osc(x, y, .) against the dual over n^(1/2).
    The exact reconstruction
      sum conj(weights[i, j]) * ops[i, j].entries == build_hard_fio(b, psi)
    holds whenever the system is a frame.
    """
    if b.rank != 3 or b.n != sys.n:
        raise ValueError("slicing expects rank-3 tables on the system's Z_n")
    n = sys.n
    weights = analyze(sys, FiniteSignal(n, 1, np.ones(n)))
    rows = shifted_window(dual_window(sys), sys.a)
    kernels = stft_axis(oscillatory(b, psi), rows, n * n, 1, sys.b) / np.sqrt(n)
    kernels = kernels.reshape(n, n, *weights.shape)  # (x, y, k, l)
    ops = np.empty(weights.shape, dtype=object)
    for idx in np.ndindex(weights.shape):
        ops[idx] = OperatorMatrix(kernels[(...,) + idx])
    return weights, ops
