"""Mixed (nested l^p) norms of multi-axis arrays and mixed modulation norms.

A Permutation c together with an ExponentVector (p_1, ..., p_m) defines the
norm obtained by contracting axis c(1) of the array innermost with l^{p_1},
then axis c(2) with l^{p_2}, and so on; infinity entries contract with the
max of absolute values.

The slice / FIO-slice / FIO-symbol classifier uses the same convention:
a permutation c belongs to a class when the induced level assignment
(axis c(j) is contracted at level j) matches the class's block conditions.
Concretely the block conditions are checked on the inverse image of c.
"""

from __future__ import annotations

import math
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
        img = tuple(int(i) for i in self.image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a permutation of 1..{len(img)}: {img}")
        object.__setattr__(self, "image", img)

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int:
        return self.image[j - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for j, cj in enumerate(self.image, start=1):
            inv[cj - 1] = j
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        return cls(tuple(int(tok) for tok in text.split(",")))


@dataclass(frozen=True)
class ExponentVector:
    """Exponents in [1, inf], one per contraction level."""

    exps: tuple

    def __post_init__(self):
        exps = tuple(float(p) for p in self.exps)
        if any(p < 1 or math.isnan(p) for p in exps):
            raise ValueError("every exponent must be >= 1")
        object.__setattr__(self, "exps", exps)

    def __len__(self) -> int:
        return len(self.exps)

    def __iter__(self):
        return iter(self.exps)

    @classmethod
    def parse(cls, text: str) -> "ExponentVector":
        vals = [INF if tok.strip().lower() == "inf" else float(tok) for tok in text.split(",")]
        return cls(tuple(vals))


def _block(lo: int, hi: int) -> frozenset:
    """{lo, ..., hi} with 1-based inclusive bounds."""
    return frozenset(range(lo, hi + 1))


def _slice_conditions(d: int) -> dict:
    """Block-mapping conditions per class, as (domain, range) pairs.

    Conditions constrain where each axis group lands in the contraction
    order: (domain, range) requires that the axes in `domain` occupy
    exactly the levels in `range`.
    """
    return {
        "first-slice": [
            (_block(1, d) | _block(2 * d + 1, 3 * d), _block(1, 2 * d)),
            (_block(d + 1, 2 * d) | _block(3 * d + 1, 4 * d), _block(2 * d + 1, 4 * d)),
        ],
        "second-slice": [
            (_block(d + 1, 2 * d) | _block(3 * d + 1, 4 * d), _block(1, 2 * d)),
            (_block(1, d) | _block(2 * d + 1, 3 * d), _block(2 * d + 1, 4 * d)),
        ],
    }


def _fio_conditions(d: int) -> dict:
    return {
        "first-FIO-slice": [
            (_block(1, d) | _block(3 * d + 1, 4 * d), _block(1, 2 * d)),
            (_block(d + 1, 2 * d) | _block(4 * d + 1, 5 * d), _block(2 * d + 1, 4 * d)),
            (_block(2 * d + 1, 3 * d), _block(4 * d + 1, 5 * d)),
            (_block(5 * d + 1, 6 * d), _block(5 * d + 1, 6 * d)),
        ],
        "second-FIO-slice": [
            (_block(d + 1, 2 * d) | _block(4 * d + 1, 5 * d), _block(1, 2 * d)),
            (_block(1, d) | _block(3 * d + 1, 4 * d), _block(2 * d + 1, 4 * d)),
            (_block(2 * d + 1, 3 * d), _block(4 * d + 1, 5 * d)),
            (_block(5 * d + 1, 6 * d), _block(5 * d + 1, 6 * d)),
        ],
        "first-FIO-symbol": [
            (_block(5 * d + 1, 6 * d), _block(1, d)),
            (_block(1, d) | _block(3 * d + 1, 4 * d), _block(d + 1, 3 * d)),
            (_block(d + 1, 2 * d) | _block(4 * d + 1, 5 * d), _block(3 * d + 1, 5 * d)),
            (_block(2 * d + 1, 3 * d), _block(5 * d + 1, 6 * d)),
        ],
        "second-FIO-symbol": [
            (_block(5 * d + 1, 6 * d), _block(1, d)),
            (_block(d + 1, 2 * d) | _block(4 * d + 1, 5 * d), _block(d + 1, 3 * d)),
            (_block(1, d) | _block(3 * d + 1, 4 * d), _block(3 * d + 1, 5 * d)),
            (_block(2 * d + 1, 3 * d), _block(5 * d + 1, 6 * d)),
        ],
    }


def levels_of_axes(c: Permutation) -> dict:
    """Map axis s -> contraction level j (i.e. c(j) = s)."""
    return {cj: j for j, cj in enumerate(c.image, start=1)}

def satisfies_blocks(c: Permutation, conditions) -> bool:
    """True when every (axes, levels) pair in `conditions` holds for c."""
    lv = levels_of_axes(c)
    return all(frozenset(lv[s] for s in axes) == levels for axes, levels in conditions)


def classify_permutation(c: Permutation, d: int) -> set:
    """Classes among the slice / FIO taxonomies that c belongs to."""
    m = len(c)
    if m == 4 * d:
        table = _slice_conditions(d)
    elif m == 6 * d:
        table = _fio_conditions(d)
    else:
        raise ValueError(f"permutation length {m} is neither 4d nor 6d for d = {d}")
    return {name for name, conds in table.items() if satisfies_blocks(c, conds)}


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
        if p == INF:
            a = a.max(axis=-1)
        elif p == 1.0:
            a = a.sum(axis=-1)
        elif p == 2.0:
            a = np.sqrt((a * a).sum(axis=-1))
        else:
            peak = a.max(axis=-1)
            safe = np.where(peak > 0, peak, 1.0)
            scaled = a / safe[..., None]
            a = peak * (scaled**p).sum(axis=-1) ** (1.0 / p)
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
