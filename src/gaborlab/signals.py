"""Signals on the cyclic group Z_n^d.

Provides the signal type FiniteSignal and its operations: the unitary DFT
and the normalized short-time Fourier transform.  Every time-frequency
coefficient comes from shifted_window, the shifted windows over a lattice aZ_n,
and stft_axis, which multiplies a time axis by them, folds it with period n/b
and takes one FFT.

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

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteSignal",
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
        for name, value in (("n", self.n), ("dim", self.dim)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def delta(n: int) -> FiniteSignal:
    """Point mass at 0 on Z_n."""
    return FiniteSignal(n, 1, np.eye(1, n))


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


def dft(f: FiniteSignal) -> FiniteSignal:
    """Unitary DFT on Z_n^d."""
    # fftn runs its axes last to first; reversing them keeps axis 0 first and the bits stable.
    out = np.fft.fftn(f.grid, axes=tuple(reversed(range(f.dim)))) * f.n ** (-f.dim / 2)
    return FiniteSignal(f.n, f.dim, out)


def shifted_window(g: FiniteSignal, a: int = 1) -> np.ndarray:
    """The table conj g(t - k) for time shifts k in (aZ_n)^d, indexed (k_1, ...,
    k_d, t_1, ..., t_d): an (n/a, n) table for a 1-D window."""
    t, d = np.arange(g.n), g.dim
    idx = (t[None, :] - t[::a, None]) % g.n  # idx[j, t] = (t - a j) mod n, on axes j and d + j
    return np.conj(g.grid)[tuple(idx.reshape((1,) * j + (len(idx),) + (1,) * (d - 1) + (g.n,)
                                             + (1,) * (d - j - 1)) for j in range(d))]


def stft_axis(arr: np.ndarray, rows: np.ndarray, before: int, after: int,
              b: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """One variable's STFT at the frequencies bZ_n.  `arr` holds before * n *
    after entries, its middle axis a time axis t; `rows` is a (K, n) table of
    shifted windows.  Returns the (before, K, n/b, after) array V[., k, l, .] =
    sum_t arr[., t, .] rows[k, t] e^(-2 pi i b l t / n), t folded with period n/b,
    written into `out`, a complex array of that shape, where one is given."""
    n = rows.shape[1]
    arr = arr.reshape(before, 1, n, after)
    if b > 1:
        out = np.sum((arr * rows[:, :, None]).reshape(before, len(rows), b, n // b, after),
                     axis=2, out=out)
    else:
        out = np.multiply(arr, rows[:, :, None], out=out)
    np.fft.fft(out, axis=2, out=out)
    return out


def stft(f: FiniteSignal, g: FiniteSignal) -> np.ndarray:
    """Short-time Fourier transform V_g f(k, l) = n^(-d/2) <f, M_l T_k g>,
    as an (n,)*2d array indexed (k_1, ..., k_d, l_1, ..., l_d).

    A one-dimensional window g on a d-dimensional signal stands for its
    tensor power g (x) ... (x) g; the transform then runs one axis at a time.
    """
    if f.n != g.n:
        raise ValueError("signal and window live on different groups")
    n, d = f.n, f.dim
    if g.dim == 1:
        rows = shifted_window(g) * n ** -0.5
        arr = f.values
        for j in range(d):
            # arr is (k_1, l_1, ..., k_j, l_j, t_{j+1}, ..., t_d), flat.
            arr = stft_axis(arr, rows, n ** (2 * j), n ** (d - j - 1))
        order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
        return arr.reshape((n,) * (2 * d)).transpose(order)
    if g.dim != d:
        raise ValueError(f"window dimension {g.dim} is neither 1 nor {d}")
    # General window: shifted on every axis pair (k_j, t_j), one FFT over the t_j.
    h = f.grid * shifted_window(g)
    np.fft.fftn(h, axes=tuple(reversed(range(d, 2 * d))), out=h)
    return h * n ** (-d / 2)

