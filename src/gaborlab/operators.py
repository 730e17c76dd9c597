"""Dense operator matrices, symbol/phase tables and quadratic phases on Z_n^d.

Phases are stored in cycles: a phase table psi holds real values and the
operator builders use exp(2 pi i psi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OperatorMatrix", "SymbolTable", "PhaseTable", "QuadraticPhase"]


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense N x N matrix acting on signals on Z_n^d, N = n^d."""

    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1] or ent.size == 0:
            raise ValueError(f"entries must be a nonempty square matrix, got shape {ent.shape}")
        if not np.all(np.isfinite(ent)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", ent)


def _check_table(n: int, rank: int, values, dtype) -> np.ndarray:
    vals = np.asarray(values, dtype=dtype)
    if vals.shape != (n,) * rank:
        raise ValueError(f"values must have shape {(n,) * rank}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("table entries must be finite")
    return vals


@dataclass(frozen=True)
class SymbolTable:
    """Complex symbol, e.g. a(x, xi) (rank 2) or b(x, y, xi) (rank 3)."""

    n: int
    rank: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_table(self.n, self.rank, self.values, np.complex128)
        )


@dataclass(frozen=True)
class PhaseTable:
    """Real phase in cycles; the operator uses exp(2 pi i * values)."""

    n: int
    rank: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _check_table(self.n, self.rank, self.values, np.float64)
        )

    def unit_table(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.values)


@dataclass(frozen=True)
class QuadraticPhase:
    """Phase c0 + q.w/n + w.Mw/(2n) in cycles, M symmetric integer."""

    c0: float
    q: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=np.int64))
        m = np.asarray(self.m, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("M must be a square matrix")
        if q.shape != (m.shape[0],):
            raise ValueError("q and M dimensions disagree")
        if not np.array_equal(m, m.T):
            raise ValueError("M must be symmetric")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)

    @property
    def rank(self) -> int:
        return int(self.q.shape[0])

    def check_well_defined(self, n: int) -> None:
        """exp(pi i w.Mw / n) descends to Z_n iff n * M_ii is even."""
        if np.any((n * np.diag(self.m)) % 2 != 0):
            raise ValueError(
                "chirp not well-defined on Z_n: n * M_ii must be even "
                "(choose even n or even diagonal)"
            )
