"""Oscillatory integral operators on Z_n.

Two builder forms:

* "easy":  A f(x) = sum_xi a(x, xi) exp(2 pi i phi(x, xi)) f_hat(xi),
  assembled as K @ F with K = a * exp(2 pi i phi) and F the unitary DFT.
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

from .frames import GaborSystem, _coefficients, dual_window
from .operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from .signals import FiniteSignal

__all__ = [
    "dft_matrix",
    "build_easy_fio",
    "easy_kernel",
    "build_hard_fio",
    "apply_chirp",
    "quadratic_phase_table",
    "fio_slice_family",
]


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix F[xi, t] = n^(-1/2) w^(-xi t)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def _check_pair(sym, phase) -> None:
    if (sym.n, sym.rank) != (phase.n, phase.rank):
        raise ValueError("symbol and phase tables have mismatched shapes")


def easy_kernel(a: SymbolTable, phi: PhaseTable) -> SymbolTable:
    """k(x, xi) = a(x, xi) exp(2 pi i phi(x, xi)); the easy FIO is k @ F."""
    _check_pair(a, phi)
    if a.rank != 2:
        raise ValueError("easy form takes rank-2 tables")
    return SymbolTable(a.n, 2, a.values * phi.unit_table())


def build_easy_fio(a: SymbolTable, phi: PhaseTable) -> OperatorMatrix:
    k = easy_kernel(a, phi)
    return OperatorMatrix(a.n, k.values @ dft_matrix(a.n))


def build_hard_fio(b: SymbolTable, psi: PhaseTable) -> OperatorMatrix:
    _check_pair(b, psi)
    if b.rank != 3:
        raise ValueError("hard form takes rank-3 tables")
    kernel = (b.values * psi.unit_table()).sum(axis=2) / np.sqrt(b.n)
    return OperatorMatrix(b.n, kernel)


def apply_chirp(f: FiniteSignal, m) -> FiniteSignal:
    """S_M f(t) = exp(pi i t.Mt / n) f(t), M symmetric integer."""
    m = np.atleast_2d(np.asarray(m, dtype=np.int64))
    qp = QuadraticPhase(0.0, np.zeros(m.shape[0], dtype=np.int64), m)
    if qp.rank != f.dim:
        raise ValueError("chirp matrix dimension must match the signal")
    qp.check_well_defined(f.n)
    coords = np.indices((f.n,) * f.dim).reshape(f.dim, -1)
    quad = np.einsum("it,ij,jt->t", coords, m, coords)
    return FiniteSignal(f.n, f.dim, np.exp(1j * np.pi * quad / f.n) * f.values)


def quadratic_phase_table(qp: QuadraticPhase, rank: int, n: int) -> PhaseTable:
    """Phase table psi(w) = c0 + q.w/n + w.Mw/(2n), reduced mod 1."""
    if qp.rank != rank:
        raise ValueError(f"quadratic phase has rank {qp.rank}, requested {rank}")
    qp.check_well_defined(n)
    coords = np.indices((n,) * rank).reshape(rank, -1).astype(np.float64)
    lin = qp.q.astype(np.float64) @ coords
    quad = np.einsum("it,ij,jt->t", coords, qp.m.astype(np.float64), coords)
    vals = (qp.c0 + lin / n + quad / (2 * n)) % 1.0
    return PhaseTable(n, rank, vals.reshape((n,) * rank))


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
    _check_pair(b, psi)
    if b.rank != 3 or b.n != sys.n:
        raise ValueError("slicing expects rank-3 tables on the system's Z_n")
    n = sys.n
    weights = _coefficients(sys, np.ones(n))
    osc = b.values * psi.unit_table()  # (x, y, xi)
    kernels = _coefficients(sys, osc, dual_window(sys)) / np.sqrt(n)  # (x, y, k, l)
    ops = np.empty(weights.shape, dtype=object)
    for idx in np.ndindex(weights.shape):
        ops[idx] = OperatorMatrix(n, kernels[(...,) + idx])
    return weights, ops
