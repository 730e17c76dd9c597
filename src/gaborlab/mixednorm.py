"""Mixed (nested l^p) norms of multi-axis arrays and mixed modulation norms.

A Permutation c together with an ExponentVector (p_1, ..., p_m) defines the
norm obtained by contracting axis c(1) of the array innermost with l^{p_1},
then axis c(2) with l^{p_2}, and so on; infinity entries contract with the
max of absolute values.

The slice / FIO-slice / FIO-symbol classes are written once, at d = 1, as
data: CLASSES maps each class to its rank and to (axes, levels) pairs, each
saying that those axes are contracted at exactly those levels.  One rule
lifts a pair to any d: axis or level s stands for the block
(s - 1) d + 1, ..., s d.  A permutation of length rank * d belongs to a
class when every lifted pair holds.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .operators import SymbolTable
from .signals import FiniteSignal, stft

__all__ = [
    "Permutation",
    "ExponentVector",
    "classify_permutation",
    "mixed_norm",
    "mixed_modulation_norm",
    "tensor_window",
]

INF = math.inf


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., m}, stored as the image tuple (c(1), ..., c(m))."""

    image: tuple

    def __post_init__(self):
        img = self.image
        if (any(isinstance(i, bool) or not isinstance(i, numbers.Integral) for i in img)
                or sorted(img) != list(range(1, len(img) + 1))):
            raise ValueError(f"not a permutation of 1..{len(img)} in integers: {img!r}")
        object.__setattr__(self, "image", tuple(map(operator.index, img)))

    def __len__(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in text.split(",")))


@dataclass(frozen=True)
class ExponentVector:
    """Exponents in [1, inf], one per contraction level; parse reads text."""

    exps: tuple

    def __post_init__(self):
        if any(isinstance(p, bool) or not isinstance(p, numbers.Real) or not p >= 1
               for p in self.exps):
            raise ValueError(f"every exponent must be a real number >= 1, got {self.exps!r}")
        object.__setattr__(self, "exps", tuple(float(p) for p in self.exps))

    def __len__(self) -> int:
        return len(self.exps)

    def __iter__(self):
        return iter(self.exps)

    @classmethod
    def parse(cls, text: str) -> "ExponentVector":
        vals = [INF if tok.strip().lower() == "inf" else float(tok) for tok in text.split(",")]
        return cls(tuple(vals))


# Slice classes have rank 4: the time axes x, y of a kernel, then their
# frequency axes.  FIO classes have rank 6: x, y, xi of a symbol, then theirs.
CLASSES = {
    "first-slice": (4, [((1, 3), (1, 2)), ((2, 4), (3, 4))]),
    "second-slice": (4, [((2, 4), (1, 2)), ((1, 3), (3, 4))]),
    "first-FIO-slice": (6, [((1, 4), (1, 2)), ((2, 5), (3, 4)), ((3,), (5,)), ((6,), (6,))]),
    "second-FIO-slice": (6, [((2, 5), (1, 2)), ((1, 4), (3, 4)), ((3,), (5,)), ((6,), (6,))]),
    "first-FIO-symbol": (6, [((6,), (1,)), ((1, 4), (2, 3)), ((2, 5), (4, 5)), ((3,), (6,))]),
    "second-FIO-symbol": (6, [((6,), (1,)), ((2, 5), (2, 3)), ((1, 4), (4, 5)), ((3,), (6,))]),
}


def satisfies_blocks(c: Permutation, conditions, d: int = 1) -> bool:
    """True when every d = 1 (axes, levels) pair in `conditions`, lifted to d,
    holds for c; len(c) must be the conditions' rank times d."""
    def lift(blocks):
        return frozenset(i for s in blocks for i in range((s - 1) * d + 1, s * d + 1))

    level = {axis: j for j, axis in enumerate(c.image, start=1)}
    return all(frozenset(level[i] for i in lift(axes)) == lift(levels)
               for axes, levels in conditions)


def classify_permutation(c: Permutation, d: int) -> set:
    """Classes among the slice / FIO taxonomies that c belongs to."""
    m = len(c)
    if m not in (4 * d, 6 * d):
        raise ValueError(f"permutation length {m} is neither 4d nor 6d for d = {d}")
    return {name for name, (rank, conds) in CLASSES.items()
            if rank * d == m and satisfies_blocks(c, conds, d)}


def lp_norm(a: np.ndarray, p: float):
    """l^p norm over the last axis of a non-negative array.  A general p is
    taken on the array scaled by its peak, so large entries cannot overflow."""
    if p == INF:
        return a.max(axis=-1, initial=0.0)
    if p == 1.0:
        return a.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=-1))
    peak = a.max(axis=-1, initial=0.0)
    safe = np.where(peak > 0, peak, 1.0)
    return peak * ((a / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def mixed_norm(arr, c: Permutation, exps: ExponentVector) -> float:
    """Nested l^p norm: level j contracts original axis c(j) with l^{p_j}."""
    a = np.asarray(arr)
    if a.ndim != len(c) or a.ndim != len(exps):
        raise ValueError(
            f"rank mismatch: array rank {a.ndim}, permutation {len(c)}, "
            f"exponents {len(exps)}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("array entries must be finite")
    # Reverse the level order so each contraction runs over the last
    # (contiguous) axis: level j's axis c(j) sits at position -1 when its
    # turn comes.
    a = np.abs(np.transpose(a, axes=[cj - 1 for cj in reversed(c.image)]))
    for p in exps:
        a = lp_norm(a, p)
    return float(a)


def tensor_window(window: FiniteSignal, rank: int) -> FiniteSignal:
    """Tensor power window w (x) w (x) ... for rank-r symbol transforms."""
    if window.dim != 1:
        raise ValueError("window must be one-dimensional")
    grid = reduce(np.multiply.outer, [window.values] * rank)
    return FiniteSignal(window.n, rank, grid.ravel())


def mixed_modulation_norm(obj, window: FiniteSignal, c: Permutation,
                          exps: ExponentVector) -> float:
    """mixed_norm of the STFT of `obj` against the tensor-power window."""
    if isinstance(obj, SymbolTable):
        sig = obj.as_signal()
    elif isinstance(obj, FiniteSignal):
        sig = obj
    else:
        sig = FiniteSignal(window.n, np.asarray(obj).ndim, np.asarray(obj).ravel())
    if window.n != sig.n:
        raise ValueError("window group size does not match")
    if len(c) != 2 * sig.dim:
        raise ValueError(f"permutation must have length {2 * sig.dim}")
    return mixed_norm(stft(sig, window).values, c, exps)
