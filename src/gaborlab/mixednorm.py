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

mixed_modulation_norm takes a one-dimensional window g, standing for its tensor
power, and transforms only the variables its norm needs; _plan decides how, and
planned_bytes prices that plan.  By Moyal's identity, an l^2 sum over both axes
(k_j, l_j) of a set v of variables equals ||g||^|v| times the l^2 norm over
their untransformed points t_v, so those variables are never transformed.  v
stops one variable short of all of them: at all-2 exponents with every level
paired, the norm is the closed form ||F|| ||g||^r, and one variable is still
transformed so that this closed form checks the transform.  The time shifts of
the transformed variable whose time axis is contracted outermost are taken in
groups, one slab per shift.  A group is built in row blocks of at most BLOCK
entries (2 MiB of complex values), several shifts to a block where slabs are
smaller.  A block keeps the absolute values of its rows, reduced at once by the
l^2 collapse over t_v, or else by level 1 where that lies along the rows; a
group's rows are contracted in one call over the other levels inside their time
axis's level, and the groups are joined for the levels outside it.  One worker
thread per CPU takes the groups in turn, unless there is one group; the plan
sets the groups, not the CPU count, so a norm has the same bits on any number
of workers.  A norm with no such v takes the full STFT, planned as one block of
every shift, at rank 1 and at rank 2 when its n^4 entries fit in one block,
where the full STFT is faster.
An r-dimensional window G is refused: mixed_norm(stft(F, G), c, exps) takes it.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .signals import FiniteSignal, shifted_window, stft, stft_axis

__all__ = [
    "Permutation",
    "ExponentVector",
    "classify_permutation",
    "mixed_norm",
    "mixed_modulation_norm",
    "planned_bytes",
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


def _peak_scaled_norm(a: np.ndarray, p: float, out=None):
    peak = a.max(axis=-1, initial=0.0)
    safe = np.where(peak > 0, peak, 1.0)
    scaled = np.divide(a, safe[..., None], out=out)
    scaled **= p  # in place: at most one temporary the size of a
    return peak * scaled.sum(axis=-1) ** (1.0 / p)


def lp_norm(a: np.ndarray, p: float):
    """l^p norm over the last axis of a non-negative array.  A general p is
    taken on the array scaled by its peak, so large entries cannot overflow.
    p = 2 sums plain squares, and retakes on the scaled path only the rows
    whose sum overflowed or fell below 1e-300, where underflow eats digits."""
    if p == INF:
        return a.max(axis=-1, initial=0.0)
    if p == 1.0:
        return a.sum(axis=-1)
    if p != 2.0:
        return _peak_scaled_norm(a, p)
    with np.errstate(over="ignore", under="ignore"):
        squares = (a * a).sum(axis=-1)
    norm = np.sqrt(squares)
    redo = ~((squares > 1e-300) & (squares < INF))
    if redo.any():
        norm = np.array(norm)  # writable, also when the result is 0-d
        rows = a[redo]  # a copy, scaled in place: the retake costs no more than a * a
        norm[redo] = _peak_scaled_norm(rows, 2.0, out=rows)
    return norm


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
    return float(_contract(np.abs(a), [cj - 1 for cj in c.image], exps))


def _contract(a: np.ndarray, axes, exps):
    """Nested l^p norms of the non-negative a: level j contracts axis axes[j]
    with exps[j].  The axes not given stay in front, in their order."""
    # Reverse the level order so that level j's axis sits at position -1 when
    # its turn comes.  The transposed view keeps the memory layout of `a`, so
    # that axis is contiguous only where it was in `a`; elsewhere the sums run
    # along a strided axis, in the order that layout sets.
    rest = [i for i in range(a.ndim) if i not in axes]
    a = np.transpose(a, axes=rest + axes[::-1])
    for p in exps:
        a = lp_norm(a, p)
    return a


def tensor_window(window: FiniteSignal, rank: int) -> FiniteSignal:
    """Tensor power window w (x) w (x) ... for rank-r symbol transforms."""
    if window.dim != 1:
        raise ValueError("window must be one-dimensional")
    grid = reduce(np.multiply.outer, [window.values] * rank)
    return FiniteSignal(window.n, rank, grid.ravel())


BLOCK = 2 ** 17  # entries of one row block: 2 MiB of complex values


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan(n: int, c: Permutation, exps: ExponentVector) -> tuple:
    """(full, u, v, first, blocks, levels): how mixed_modulation_norm takes a norm
    of rank r = len(c) / 2 on Z_n; variables are numbered from 0.

    v is the largest set of fewer than r variables whose time and frequency axes
    fill the innermost 2|v| levels, all with exponent 2; u holds the others, at least
    one, in the order of the levels of their time axes.
    A slab is the (before, 1, n, points) transform at one time shift of w = u[-1]:
    (k, l) of each variable of u but w, then l_w, then t_v.  Its first contraction
    (m, q) reduces the last m entries of each row with exponent q: the l^2 collapse
    over t_v, else level 1 if it lies on l_w, else none (m = 1).  A block holds
    `shifts` time shifts for `step` of a slab's rows, at most BLOCK entries or one
    row; `workers` threads take the groups of shifts.
    levels = (width, inner, outer): inner contracts a group's first contractions,
    its shifts on axis 0 and then `width` axes, over the levels inside k_w's; outer
    the groups joined over k_w.  A full plan (v empty, and rank 1 or a rank-2
    transform of at most BLOCK entries) takes the full STFT as one block of every
    shift, its first contraction level 1, and has no levels."""
    r = len(c) // 2
    v, seen = [], set()
    for level, (axis, p) in enumerate(zip(c.image, exps), start=1):
        if p != 2.0:
            break
        seen.add((axis - 1) % r)
        if level == 2 * len(seen) < 2 * r:  # both axes of each variable seen, one short of all
            v = sorted(seen)
    u = [axis - 1 for axis in c.image if axis <= r and axis - 1 not in v]
    points, before = n ** len(v), n ** (2 * len(u) - 2)
    if not v and (r == 1 or r == 2 and n ** 4 <= BLOCK):
        return True, u, v, (n, exps.exps[0]), (n, before, 1), None
    held = [a for j in u for a in (j + 1, r + j + 1) if a != u[-1] + 1]  # ends with l_w
    axes, level_exps = c.image[2 * len(v):], exps.exps[2 * len(v):]
    if v:
        first = points, 2.0
    elif axes[0] == held[-1]:
        first = n, level_exps[0]
        held.pop()
        axes, level_exps = axes[1:], level_exps[1:]
    else:
        first = 1, 1.0
    shifts = min(n, max(1, BLOCK // (before * n * points)))
    step = min(before, max(1, BLOCK // (n * points)))
    split = axes.index(u[-1] + 1)
    stacked = [u[-1] + 1] + [a for a in held if a not in axes[:split]]
    return False, u, v, first, (shifts, step, min(-(-n // shifts), _cpus())), (
        len(held), ([held.index(a) + 1 for a in axes[:split]], level_exps[:split]),
        ([stacked.index(a) for a in axes[split:]], level_exps[split:]))


def planned_bytes(n: int, c: Permutation, exps: ExponentVector) -> int:
    """Bytes mixed_modulation_norm holds at once for an object on Z_n of rank
    len(c) / 2, read from its plan.  The loop holds arr, the n^(2|u|-1) * n^|v|
    entries at 16 bytes each that a slab is cut from, which the transform before it
    held beside an nth of that.  Each worker's block takes 24 bytes an entry, 16 for
    its values and 8 for their absolute values, plus 48 per result of its shifts'
    first contractions, or 16 per absolute value without one.  The full STFT is
    its one block of every shift, 8 bytes an entry more for level 1's temporaries
    at an exponent q other than 1 or inf, and arr the array its last transform
    step reads.  The n x n shifted windows and 256 KiB of numpy's iterator buffers,
    8192 entries of each operand of a broadcast complex product, cover the rest."""
    full, u, v, (m, q), (shifts, step, workers), _ = _plan(n, c, exps)
    points = n ** len(v)
    slab = n ** (2 * len(u) - 1) * points
    worker = (shifts * step * n * points * (32 if full and q not in (1.0, INF) else 24)
              + (48 if m > 1 else 16) * shifts * slab // m)
    return 16 * slab + max(16 * slab // n, workers * worker) + 16 * n * n + 2 ** 18


def mixed_modulation_norm(obj, window: FiniteSignal, c: Permutation,
                          exps: ExponentVector) -> float:
    """mixed_norm of the STFT of `obj`, a FiniteSignal or an (n,)*r array, against
    the tensor power of the one-dimensional `window`, taken as _plan says."""
    if window.dim != 1:
        raise ValueError(f"the window is {window.dim}-dimensional; the norm takes a 1-D window g "
                         "and its tensor power, and mixed_norm(stft(F, G), c, exps) takes any G")
    if not isinstance(obj, FiniteSignal):
        if np.shape(obj) != (window.n,) * np.ndim(obj):
            raise ValueError(f"array of shape {np.shape(obj)} is not (n,)*r, n = {window.n}")
        obj = FiniteSignal(window.n, np.ndim(obj), obj)
    if window.n != obj.n:
        raise ValueError("window group size does not match")
    n, r = obj.n, obj.dim
    if len(c) != 2 * r or len(exps) != 2 * r:
        raise ValueError(f"permutation and exponents must have length {2 * r}")
    full, u, v, (m, q), (shifts, step, workers), levels = _plan(n, c, exps)
    if full:
        return mixed_norm(stft(obj, window), c, exps)
    width, inner, outer = levels
    points, before = n ** len(v), n ** (2 * len(u) - 2)

    rows = shifted_window(window) * n ** -0.5
    arr = obj.grid.transpose(u + v)
    for i in range(len(u) - 1):
        arr = stft_axis(arr, rows, n ** (2 * i), n ** (r - i - 1))
    arr = arr.reshape(before, n, points)

    def remainders(k):  # the slabs at time shifts k, ..., k + shifts - 1, contracted at once
        shift = rows[k:k + shifts]
        # Rows before shifts in memory, as the sums' order follows the layout.
        firsts = np.empty((before, len(shift), n * points // m))
        for lo in range(0, before, step):
            part = arr[lo:lo + step]
            block = np.abs(stft_axis(part, shift, len(part), points)).reshape(
                len(part), len(shift), -1, m)
            firsts[lo:lo + step] = lp_norm(block, q) if m > 1 else block[..., 0]
        return _contract(np.moveaxis(firsts, 1, 0).reshape((len(shift),) + (n,) * width), *inner)

    groups = range(0, n, shifts)
    if workers == 1:  # the whole transform is one block, or one CPU: no thread start-up
        slabs = [remainders(k) for k in groups]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here: it imports logging
        with ThreadPoolExecutor(workers) as pool:
            slabs = list(pool.map(remainders, groups))
    return float(_contract(np.concatenate(slabs), *outer)) * window.norm() ** len(v)
