"""Singular values, Schatten p-norms and the orthonormal-pair functional."""

from __future__ import annotations

import numpy as np

from .mixednorm import lp_norm
from .operators import OperatorMatrix

__all__ = ["singular_values", "schatten_norm", "pair_functional"]

ORTHONORMAL_TOL = 1e-10


def singular_values(a: OperatorMatrix) -> np.ndarray:
    """Non-negative singular values in descending order, as LAPACK returns them."""
    return np.linalg.svd(a.entries, compute_uv=False)


def schatten_norm(a: OperatorMatrix, p: float) -> float:
    """l^p norm of the singular values; p = 2 is Frobenius, p = inf operator norm."""
    if not (p >= 1.0):
        raise ValueError(f"Schatten exponent must be >= 1, got {p}")
    return float(lp_norm(singular_values(a), p))


def _check_orthonormal(vecs: np.ndarray, name: str) -> None:
    gram = vecs.conj() @ vecs.T
    if not np.allclose(gram, np.eye(vecs.shape[0]), atol=ORTHONORMAL_TOL):
        raise ValueError(f"{name} is not orthonormal within {ORTHONORMAL_TOL}")


def pair_functional(a: OperatorMatrix, fs, gs, p: float) -> float:
    """(sum_k |<A f_k, g_k>|^p)^(1/p) over orthonormal lists fs, gs.

    Always bounded by schatten_norm(a, p), with equality when fs and gs
    are right/left singular vectors.
    """
    if not (p >= 1.0):
        raise ValueError(f"exponent must be >= 1, got {p}")
    fs = np.asarray(fs, dtype=np.complex128)
    gs = np.asarray(gs, dtype=np.complex128)
    if fs.shape != gs.shape or fs.ndim != 2 or fs.shape[1] != a.entries.shape[1]:
        raise ValueError("fs and gs must be equal-length lists of C^n vectors")
    _check_orthonormal(fs, "fs")
    _check_orthonormal(gs, "gs")
    inner = np.einsum("kx,xy,ky->k", gs.conj(), a.entries, fs)
    return float(lp_norm(np.abs(inner), p))
