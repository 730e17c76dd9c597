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
transformed so that this closed form checks the transform.  The transformed
variables u are ordered by the levels of their time axes: w, the last, is
contracted outermost, and w2 next.  signals.stft_axis transforms each of them
once, piece by piece: the prefix, every variable of u but w and w2; w2 one group
of its time shifts at a time, built by the calling thread into one array, or into
two in turn where there are two groups or more; and w in row blocks of at most
BLOCK entries (2 MiB of complex values), several shifts to a block where a shift
is smaller, in buffers each task reuses.  w2's shifts go in one group unless
groups of at most BLOCK entries, or one shift, hold fewer bytes.  A block keeps
the absolute values of its rows, reduced at once by the l^2 collapse over t_v,
or else by level 1 where that lies along the rows.  A group's rows are
contracted in one call over the other levels inside the level of w2's time axis
(w's, where w2's shifts are in one group), and R, the results of every group
stacked, over the levels left.  One worker thread per CPU takes the groups of
w's shifts in turn, on one group of w2's shifts while the calling thread builds
the next; there is no thread where there is one group of w's shifts.  The plan
sets the groups, not the CPU count, so a norm has the same bits on any number of
workers.
A norm with no such v takes the full STFT, planned as one block of every shift,
at rank 1 and at rank 2 when its n^4 entries fit in one block, where the full
STFT is faster.
An r-dimensional window G is refused: mixed_norm(stft(F, G), c, exps) takes it.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial, reduce

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


def lp_norm(a: np.ndarray, p: float, out=None):
    """l^p norm over the last axis of a non-negative array.  A general p is
    taken on the array scaled by its peak, so large entries cannot overflow.
    p = 2 sums plain squares, and retakes on the scaled path only the rows
    whose sum overflowed or fell below 1e-300, where underflow eats digits.
    `out`, an array of a's shape, takes the scaled array or the squares.
    p = inf takes rows shorter than 32 column by column where there are at least
    64 times as many rows as entries in a row: that gives the same maxima, and
    there it is faster than numpy's row reduction, which each column's call
    outweighs with fewer rows."""
    if p == INF:
        if a.shape[-1] >= 32 or a.size < 64 * a.shape[-1] ** 2:
            return a.max(axis=-1, initial=0.0)
        peak = np.zeros(a.shape[:-1])
        for column in np.moveaxis(a, -1, 0):
            np.maximum(peak, column, out=peak)
        return peak
    if p == 1.0:
        return a.sum(axis=-1)
    if p != 2.0:
        return _peak_scaled_norm(a, p, out)
    with np.errstate(over="ignore", under="ignore"):
        squares = np.multiply(a, a, out=out).sum(axis=-1)
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
    one, in the order of the levels of their time axes: w = u[-1], w2 = u[-2].
    blocks = (wide, shifts, step, workers).  The loop builds w2's transform `wide`
    time shifts at a time, a group, and reads it as (before, n, points): rows of
    (k, l) of each variable of u but w, then t_w, then t_v.  A group holds at most
    BLOCK entries, or one shift, the groups as even as that allows, and they are
    taken only where that plan prices below one group of every shift on two
    workers, as the results they leave keep k_w2 and each axis contracted after
    it.  A one-group plan (wide = n) is the same loop with one group.  A slab is
    one time shift of w; its first contraction (m, q) reduces the last m entries
    of each row with exponent q: the l^2 collapse over t_v, else level 1 if it lies
    on l_w, else none (m = 1).  A block holds `shifts` time shifts for `step` rows,
    at most BLOCK entries or one row; `workers` threads take the groups of w's
    shifts.
    levels = (shape, inner, at, outer): inner contracts a group's first
    contractions, its shifts on axis 0 and then axes of sizes `shape` (-1 for the
    group's k_w2), over the levels inside k_w2's (k_w's with one group); outer
    contracts R, one C-ordered array of the results stacked over k_w, and over
    k_w2 at axis `at` where there are two groups or more (with one, at is 0).  A
    full plan (v empty, and rank 1 or a rank-2 transform of at most BLOCK entries)
    takes the full STFT as one block of every shift, its first contraction level 1,
    and has no levels."""
    r = len(c) // 2
    v, seen = [], set()
    for level, (axis, p) in enumerate(zip(c.image, exps), start=1):
        if p != 2.0:
            break
        seen.add((axis - 1) % r)
        if level == 2 * len(seen) < 2 * r:  # both axes of each variable seen, one short of all
            v = sorted(seen)
    u = [axis - 1 for axis in c.image if axis <= r and axis - 1 not in v]
    points, line = n ** len(v), n ** (2 * len(u) - 2 + len(v))
    if not v and (r == 1 or r == 2 and n ** 4 <= BLOCK):
        return True, u, v, (n, exps.exps[0]), (n, n, n ** (2 * len(u) - 2), 1), None
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
    shape = [n] * len(held)
    if len(u) > 1:
        shape[held.index(u[-2] + 1)] = -1  # the group's shifts of w2

    def grouped(wide):  # the plan that takes w2's shifts `wide` at a time, priced on two workers
        before = wide * line // (n * points)
        split = axes.index(u[-1 - (wide < n)] + 1)
        stacked = [u[-1] + 1] + [a for a in held if a not in axes[:split]]
        return False, u, v, first, (
            wide, min(n, max(1, BLOCK // (wide * line))),
            min(before, max(1, BLOCK // (n * points))), 2), (
            tuple(shape), ([held.index(a) + 1 for a in axes[:split]], level_exps[:split]),
            stacked.index(u[-2] + 1) if wide < n else 0,
            ([stacked.index(a) for a in axes[split:]], level_exps[split:]))

    full, u, v, first, (wide, shifts, step, _), levels = plan = grouped(n)
    most = min(n, max(1, BLOCK // line)) if len(u) > 1 else n
    if most < n:  # w2's shifts in groups, evened out, where that prices below one group
        full, u, v, first, (wide, shifts, step, _), levels = min(
            plan, grouped(-(-n // -(-n // most))), key=lambda plan: _price(n, plan))
    return full, u, v, first, (wide, shifts, step, min(-(-n // shifts), _cpus())), levels


def _price(n: int, plan: tuple) -> int:
    """planned_bytes of a plan."""
    full, u, v, (m, q), (wide, shifts, step, workers), levels = plan
    points, line = n ** len(v), n ** (2 * len(u) - 2 + len(v))
    slab = wide * line
    results = 0 if full else n ** len(levels[-1][0])
    per_entry = 32 if full and q not in (1.0, INF) else 24
    worker = (per_entry * shifts * step * n * points
              + (48 * n if m > 1 else 16 * n + 32) * shifts * slab // (m * n))
    loop = 16 * (line + min(2, -(-n // wide)) * slab) + workers * worker + 8 * results
    return max(loop, (16 * n + 32) * results // n) + 16 * n * n + workers * 2 ** 18


def planned_bytes(n: int, c: Permutation, exps: ExponentVector) -> int:
    """Bytes mixed_modulation_norm holds at once for an object on Z_n of rank
    len(c) / 2, read from its plan.  The prefix has n^(2|u|-2) n^|v| entries, as
    many as one time shift of w2's transform, and a group of w2's shifts `wide`
    times that.  The loop holds the prefix beside one array of a group, or two
    where there are two groups or more, at 16 bytes an entry.  Each worker's block
    takes 24 bytes an entry, 16 for its values, which then hold the first
    contraction's temporaries, and 8 for their absolute values; and 48 bytes per
    result of its shifts' first contractions.  Without a first contraction its
    absolute values, and in any plan R, the stacked results, take 8 bytes an
    entry, and contracting either (R once the loop's arrays are freed) takes a
    scaled copy and four arrays an nth of its size.  The full STFT is priced in
    the same way: its last transform step reads one group of every shift, beside
    the array before it, and it is its one block of every shift, 8 bytes an entry
    more for level 1's temporaries at an exponent q other than 1 or inf.  The
    n x n shifted windows and, for each worker, 256 KiB of numpy's iterator
    buffers, 8192 entries of each operand of a broadcast complex product, cover
    the rest."""
    return _price(n, _plan(n, c, exps))


def _stacked(obj: FiniteSignal, window: FiniteSignal, plan: tuple) -> np.ndarray:
    """R: the results of every group of time shifts, stacked over k_w, and over
    k_w2 where w2's shifts come in two groups or more; the prefix and the groups'
    arrays go with the call.  The calling thread builds each group of w2's
    shifts, and the workers then take it at their shares of w's shifts while it
    builds the next."""
    n, r = obj.n, obj.dim
    _, u, v, (m, q), (wide, shifts, step, workers), (shape, inner, at, outer) = plan
    points = n ** len(v)
    rows = shifted_window(window) * n ** -0.5
    arr = np.ascontiguousarray(obj.grid.transpose(u + v))
    for i in range(len(u) - 2):  # u but w and w2
        arr = stft_axis(arr, rows, n ** (2 * i), n ** (r - i - 1))
    if len(u) > 1:  # w2's groups are built in turn, into two arrays where there are two
        groups = np.empty((min(2, -(-n // wide)), wide * arr.size), complex)
    size = shifts * step * n * points  # entries of one block
    stacked = np.empty((n,) * len(outer[0]))

    def slabs(part, k2, ks):  # w2's shifts k2, ..., k2 + wide - 1 at w's groups of shifts ks
        # One allocation holds the task's block buffers, which it reuses for each
        # block, so that no block maps and faults in new memory.
        scratch = np.empty(3 * size)
        buf, mag = scratch[:2 * size].view(complex), scratch[2 * size:]
        # The group's part of R: its shifts of w2 on axis `at`, or all of axis 0 with one group.
        region = (slice(None),) * at + (slice(k2, k2 + wide),)
        for k in ks:
            shift = rows[k:k + shifts]
            # Rows before shifts in memory, as the sums' order follows the layout.
            firsts = np.empty((len(part), len(shift), n * points // m))
            for lo in range(0, len(part), step):
                rows_in = part[lo:lo + step]
                out = buf[:len(rows_in) * len(shift) * n * points].reshape(
                    len(rows_in), len(shift), n, points)
                out = stft_axis(rows_in, shift, len(rows_in), points, out=out)
                block = np.abs(out, out=mag[:out.size].reshape(out.shape)).reshape(
                    len(rows_in), len(shift), -1, m)
                # The values are spent: their buffer takes the contraction's temporaries.
                spent = buf.view(np.float64)[:block.size].reshape(block.shape)
                firsts[lo:lo + step] = lp_norm(block, q, spent) if m > 1 else block[..., 0]
            stacked[k:k + len(shift)][region] = _contract(
                np.moveaxis(firsts, 1, 0).reshape((len(shift),) + shape), *inner)

    if workers == 1:  # the whole transform is one block, or one CPU: no thread start-up
        pool = nullcontext()
    else:
        from concurrent.futures import ThreadPoolExecutor  # here: it imports logging
        pool = ThreadPoolExecutor(workers)
    with pool:
        run = pool.map if workers > 1 else map
        shares = [range(i * shifts, n, workers * shifts) for i in range(workers)]
        # Two arrays take the groups in turn: the workers take one group while
        # this thread builds the next, and none waits for the others between them.
        taken = [(), ()]  # the tasks on each array
        for g, k2 in enumerate(range(0, n, wide)):
            list(taken[g % 2])  # done with the group two before, whose array this one takes
            part = arr
            if len(u) > 1:  # w2's transform at its shifts k2, ..., k2 + wide - 1
                shift = rows[k2:k2 + wide]
                part = groups[g % 2][:len(shift) * arr.size].reshape(-1, len(shift), n, n * points)
                part = stft_axis(arr, shift, len(part), n * points, out=part)
            taken[g % 2] = run(partial(slabs, part.reshape(-1, n, points), k2), shares)
        for tasks in taken:
            list(tasks)
    return stacked


def mixed_modulation_norm(obj, window: FiniteSignal, c: Permutation,
                          exps: ExponentVector) -> float:
    """mixed_norm of the STFT of `obj`, a FiniteSignal or an (n,)*r array, against
    the tensor power of the one-dimensional `window`, taken as _plan says.  A
    transform that overflows raises FloatingPointError."""
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
    plan = _plan(n, c, exps)
    if plan[0]:
        transform = stft(obj, window)
        norm = mixed_norm(transform, c, exps) if np.isfinite(transform).all() else INF
    else:
        norm = float(_contract(_stacked(obj, window, plan), *plan[-1][-1]))
        norm *= window.norm() ** len(plan[2])
    if not math.isfinite(norm):
        raise FloatingPointError("the transform of this object overflows the float range")
    return norm
