"""Signals on the cyclic group Z_n^d.

Provides the signal type FiniteSignal and its operations: time-frequency
shifts, the unitary DFT and the normalized short-time Fourier transform.

Conventions fixed here and relied on everywhere else:

* Z_n^d points are indexed row-major; signal values are stored flat.
* The DFT is unitary: f_hat(xi) = n^(-d/2) * sum_t f(t) w^(-t.xi),
  w = exp(2 pi i / n).
* The STFT carries the same n^(-d/2) prefactor so that the Moyal
  identity sum |V|^2 = |f|^2 |g|^2 holds with constant 1.
* A one-dimensional window on Z_n^d means its tensor power g (x) ... (x) g.
* The STFT of a signal on Z_n^d is a plain (n,)*2d array whose axes are
  ordered "all time shifts, then all frequencies".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteSignal",
    "tf_shift",
    "dft",
    "stft",
    "delta",
    "periodized_gaussian",
    "random_signal",
]


@dataclass(frozen=True)
class FiniteSignal:
    """Complex-valued function on Z_n^d, stored flat in row-major order."""

    n: int
    dim: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.dim < 1:
            raise ValueError("group size and dimension must be positive")
        vals = np.asarray(self.values, dtype=np.complex128).ravel()
        if vals.size != self.n**self.dim:
            raise ValueError(
                f"expected {self.n**self.dim} values for Z_{self.n}^{self.dim}, "
                f"got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> np.ndarray:
        """Values reshaped to (n,)*dim."""
        return self.values.reshape((self.n,) * self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def inner(self, other: "FiniteSignal") -> complex:
        """<self, other> = sum self * conj(other)."""
        if (self.n, self.dim) != (other.n, other.dim):
            raise ValueError("signals live on different groups")
        return complex(np.vdot(other.values, self.values))

    def scaled(self, alpha: complex) -> "FiniteSignal":
        return FiniteSignal(self.n, self.dim, alpha * self.values)


def delta(n: int, dim: int = 1, at=0) -> FiniteSignal:
    """Point mass at `at` (scalar or index tuple)."""
    vals = np.zeros((n,) * dim, dtype=np.complex128)
    idx = (at,) * dim if np.isscalar(at) else tuple(at)
    vals[idx] = 1.0
    return FiniteSignal(n, dim, vals)


def periodized_gaussian(n: int) -> FiniteSignal:
    """Unit-norm periodization of exp(-pi t^2 / n), the standard window."""
    t = np.arange(n, dtype=float)
    g = np.zeros(n)
    for j in range(-4, 5):
        g += np.exp(-np.pi * (t + j * n) ** 2 / n)
    g /= np.linalg.norm(g)
    return FiniteSignal(n, 1, g.astype(np.complex128))


def random_signal(n: int, dim: int, rng: np.random.Generator) -> FiniteSignal:
    """I.i.d. standard complex Gaussian entries."""
    shape = (n,) * dim
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FiniteSignal(n, dim, vals / np.sqrt(2.0))


def _index_vector(v, dim: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=np.int64))
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have length {dim}")
    return arr


def tf_shift(f: FiniteSignal, k, l) -> FiniteSignal:
    """Time-frequency shift M_l T_k: t -> w^(l.t) f(t - k)."""
    k = _index_vector(k, f.dim, "k") % f.n
    l = _index_vector(l, f.dim, "l") % f.n
    shifted = np.roll(f.grid, tuple(k), axis=tuple(range(f.dim)))
    coords = np.indices((f.n,) * f.dim)
    phase = np.tensordot(l, coords, axes=(0, 0))
    out = np.exp(2j * np.pi * phase / f.n) * shifted
    return FiniteSignal(f.n, f.dim, out)


def dft(f: FiniteSignal) -> FiniteSignal:
    """Unitary DFT on Z_n^d."""
    # fftn runs its axes last to first; reversing them keeps axis 0 first and the bits stable.
    out = np.fft.fftn(f.grid, axes=tuple(reversed(range(f.dim)))) * f.n ** (-f.dim / 2)
    return FiniteSignal(f.n, f.dim, out)


def stft(f: FiniteSignal, g: FiniteSignal) -> np.ndarray:
    """Short-time Fourier transform V_g f(k, l) = n^(-d/2) <f, M_l T_k g>,
    as an (n,)*2d array indexed (k_1, ..., k_d, l_1, ..., l_d).

    A one-dimensional window g on a d-dimensional signal stands for its
    tensor power g (x) ... (x) g; the transform then runs one axis at a time.
    """
    if f.n != g.n:
        raise ValueError("signal and window live on different groups")
    n, d = f.n, f.dim
    t = np.arange(n)
    idx = (t[None, :] - t[:, None]) % n  # idx[k, t] = (t - k) mod n
    if g.dim == 1:
        w = np.conj(g.values)[idx] * n ** -0.5
        arr = f.values
        for j in range(d):
            # arr is (k_1, l_1, ..., k_j, l_j, t_{j+1}, ..., t_d), flat.
            arr = arr.reshape(n ** (2 * j), 1, n, n ** (d - j - 1)) * w[:, :, None]
            np.fft.fft(arr, axis=2, out=arr)
        order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
        return arr.reshape((n,) * (2 * d)).transpose(order)
    if g.dim != d:
        raise ValueError(f"window dimension {g.dim} is neither 1 nor {d}")
    # General window: gather conj(g)(t - k) through idx on every axis pair
    # (k_j, t_j), then one FFT over the point axes.
    gather = tuple(idx.reshape((1,) * j + (n,) + (1,) * (d - 1) + (n,) + (1,) * (d - j - 1))
                   for j in range(d))
    h = f.grid * np.conj(g.grid)[gather]
    np.fft.fftn(h, axes=tuple(reversed(range(d, 2 * d))), out=h)
    return h * n ** (-d / 2)

