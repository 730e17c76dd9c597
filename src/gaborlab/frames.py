"""Gabor systems on separable lattices aZ_n x bZ_n (d = 1).

Frame operator (Walnut's closed form), frame bounds, dual and canonical
tight windows, analysis/synthesis and the lattice-vs-full-lattice norm
equivalence check.  Every lattice coefficient comes from one map,
signals.stft_axis: the shifted windows of signals.shifted_window over aZ_n,
a fold of the time axis with period n/b, one length-n/b FFT.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .mixednorm import ExponentVector, Permutation, mixed_modulation_norm, mixed_norm
from .operators import OperatorMatrix
from .signals import FiniteSignal, shifted_window, stft_axis

__all__ = [
    "NotAFrameError",
    "GaborSystem",
    "frame_operator",
    "frame_bounds",
    "dual_window",
    "canonical_tight_window",
    "analyze",
    "synthesize",
    "banach_frame_equivalence",
]

# Relative eigenvalue floor below which a frame operator counts as singular.
EIG_FLOOR = 1e-12


class NotAFrameError(ValueError):
    """The Gabor system does not span C^n."""


@dataclass(frozen=True)
class GaborSystem:
    """Window plus time step a and frequency step b, both dividing n."""

    window: FiniteSignal
    a: int
    b: int

    def __post_init__(self):
        if self.window.dim != 1:
            raise ValueError("Gabor systems are built from d = 1 windows")
        for name, value in (("a", self.a), ("b", self.b)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n = self.window.n
        if self.a < 1 or self.b < 1 or n % self.a or n % self.b:
            raise ValueError("a and b must be positive divisors of n")
        if self.window.norm() == 0.0:
            raise ValueError("window must be nonzero")

    @property
    def n(self) -> int:
        return self.window.n

    def with_window(self, window: FiniteSignal) -> "GaborSystem":
        return GaborSystem(window, self.a, self.b)


def frame_operator(sys: GaborSystem) -> OperatorMatrix:
    """S f = sum of <f, M_l T_k g> M_l T_k g, in Walnut's form S(t, t') =
    (n/b) sum_k g(t - k) conj(g(t' - k)) if t = t' mod n/b, and 0 otherwise."""
    n, m = sys.n, sys.n // sys.b
    w = shifted_window(sys.window, sys.a)
    t = np.arange(n)
    same_class = (t[:, None] - t[None, :]) % m == 0
    return OperatorMatrix(np.where(same_class, m * (w.T.conj() @ w), 0.0))


def frame_bounds(sys: GaborSystem) -> tuple:
    """(A, B) = extreme eigenvalues of the frame operator; A = 0 for non-frames."""
    eigs = np.linalg.eigvalsh(frame_operator(sys).entries)
    a, b = float(eigs[0]), float(eigs[-1])
    return (max(a, 0.0), b)


def _require_frame(sys: GaborSystem, lowest: float, highest: float) -> None:
    """Raise NotAFrameError when the lowest eigenvalue of S is below the floor."""
    if lowest <= EIG_FLOOR * max(highest, 1.0):
        raise NotAFrameError(
            f"Gabor system with a={sys.a}, b={sys.b} on Z_{sys.n} is not a frame "
            f"(smallest eigenvalue {lowest:.3e})"
        )


def _spectral_power(sys: GaborSystem, power: float) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(frame_operator(sys).entries)
    _require_frame(sys, eigs[0], eigs[-1])
    return (vecs * eigs**power) @ vecs.conj().T


def dual_window(sys: GaborSystem) -> FiniteSignal:
    """Canonical dual gamma = S^(-1) g."""
    return FiniteSignal(sys.n, 1, _spectral_power(sys, -1.0) @ sys.window.values)


def canonical_tight_window(sys: GaborSystem) -> FiniteSignal:
    """Parseval-izing window S^(-1/2) g."""
    return FiniteSignal(sys.n, 1, _spectral_power(sys, -0.5) @ sys.window.values)


def analyze(sys: GaborSystem, f: FiniteSignal) -> np.ndarray:
    """Coefficients <f, M_l T_k g> as an (n/a, n/b) array (time axis first)."""
    if f.dim != 1 or f.n != sys.n:
        raise ValueError("signal must live on the system's Z_n")
    return stft_axis(f.values, shifted_window(sys.window, sys.a), 1, 1, sys.b)[0, ..., 0]


def synthesize(sys: GaborSystem, coeffs: np.ndarray) -> FiniteSignal:
    """Adjoint of analyze: sum of coeffs[k, l] * M_l T_k g, where the sum over
    l is a length-n/b inverse FFT tiled b times."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    m = sys.n // sys.b
    shape = (sys.n // sys.a, m)
    if coeffs.shape != shape:
        raise ValueError(f"coefficient array must have shape {shape}")
    tiled = np.tile(m * np.fft.ifft(coeffs, axis=-1), sys.b)
    return FiniteSignal(sys.n, 1, (tiled * shifted_window(sys.window, sys.a).conj()).sum(axis=0))


def banach_frame_equivalence(sys: GaborSystem, c: Permutation, exps: ExponentVector,
                             testset) -> tuple:
    """Extremes of lattice-norm / full-lattice-modulation-norm ratios.

    The lattice coefficients are rescaled by n^(-1/2) so that at the full
    lattice (a = b = 1) they coincide with STFT samples and every ratio
    is exactly 1.
    """
    _require_frame(sys, *frame_bounds(sys))
    ratios = []
    scale = sys.n ** (-0.5)
    for f in testset:
        num = mixed_norm(scale * analyze(sys, f), c, exps)
        den = mixed_modulation_norm(f, sys.window, c, exps)
        ratios.append(num / den)
    if not ratios:
        raise ValueError("testset must be nonempty")
    return (min(ratios), max(ratios))
