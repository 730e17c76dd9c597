"""Mixed norms, permutation classes and mixed modulation norms.

The contraction oracle below recomputes nested l^p norms with explicit
Python loops; the classifier oracle re-derives every class membership by
checking the block conditions positionally, independent of the library's
set-based implementation.
"""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.mixednorm import (
    ExponentVector,
    Permutation,
    _plan,
    classify_permutation,
    lp_norm,
    mixed_modulation_norm,
    mixed_norm,
    planned_bytes,
    tensor_window,
)
from gaborlab.signals import FiniteSignal, delta, periodized_gaussian, random_signal, stft

INF = math.inf


def nested_norm_oracle(arr, image, exps):
    """Contract axis image[0] with exps[0] innermost, recursively."""
    if not image:
        return abs(arr)
    axis = image[0] - 1
    p = exps[0]
    rest_image = [a - 1 if a - 1 > axis else a for a in image[1:]]
    moved = np.moveaxis(arr, axis, -1)
    out = np.empty(moved.shape[:-1], dtype=np.float64)
    for idx in np.ndindex(*moved.shape[:-1]):
        row = np.abs(moved[idx])
        if p == INF:
            out[idx] = row.max()
        else:
            out[idx] = (row**p).sum() ** (1.0 / p)
    return nested_norm_oracle(out, rest_image, exps[1:])


def class_conditions(d):
    """(length, per-class list of (axes, levels)) pairs, spelled out."""
    def blk(lo, hi):
        return set(range(lo, hi + 1))

    x, y = blk(1, d), blk(d + 1, 2 * d)
    xi_x, xi_y = blk(2 * d + 1, 3 * d), blk(3 * d + 1, 4 * d)
    slice_classes = {
        "first-slice": [(x | xi_x, blk(1, 2 * d)), (y | xi_y, blk(2 * d + 1, 4 * d))],
        "second-slice": [(y | xi_y, blk(1, 2 * d)), (x | xi_x, blk(2 * d + 1, 4 * d))],
    }
    x, y, xi = blk(1, d), blk(d + 1, 2 * d), blk(2 * d + 1, 3 * d)
    zx, zy, zxi = blk(3 * d + 1, 4 * d), blk(4 * d + 1, 5 * d), blk(5 * d + 1, 6 * d)
    fio_classes = {
        "first-FIO-slice": [
            (x | zx, blk(1, 2 * d)), (y | zy, blk(2 * d + 1, 4 * d)),
            (xi, blk(4 * d + 1, 5 * d)), (zxi, blk(5 * d + 1, 6 * d))],
        "second-FIO-slice": [
            (y | zy, blk(1, 2 * d)), (x | zx, blk(2 * d + 1, 4 * d)),
            (xi, blk(4 * d + 1, 5 * d)), (zxi, blk(5 * d + 1, 6 * d))],
        "first-FIO-symbol": [
            (zxi, blk(1, d)), (x | zx, blk(d + 1, 3 * d)),
            (y | zy, blk(3 * d + 1, 5 * d)), (xi, blk(5 * d + 1, 6 * d))],
        "second-FIO-symbol": [
            (zxi, blk(1, d)), (y | zy, blk(d + 1, 3 * d)),
            (x | zx, blk(3 * d + 1, 5 * d)), (xi, blk(5 * d + 1, 6 * d))],
    }
    return slice_classes, fio_classes


def classify_oracle(image, d):
    """Brute-force class membership via positional level lookup."""
    table = class_conditions(d)[0] if len(image) == 4 * d else class_conditions(d)[1]
    found = set()
    for name, conds in table.items():
        ok = True
        for axes, levels in conds:
            got = {image.index(axis) + 1 for axis in axes}
            ok = ok and got == levels
        if ok:
            found.add(name)
    return found


class TestPermutation:
    def test_parse_and_identity(self):
        assert Permutation.parse("2,5,1,4,3,6").image == (2, 5, 1, 4, 3, 6)
        assert Permutation.identity(4).image == (1, 2, 3, 4)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    @pytest.mark.parametrize("image", [(1.9, 3, 2, 4), (1.0, 2), (True, 2), ("1", "2")],
                             ids=["float-1.9", "float-1.0", "bool", "text"])
    def test_rejects_non_integer_entries(self, image):
        with pytest.raises(ValueError, match="permutation"):
            Permutation(image)

    def test_takes_numpy_integers(self):
        assert Permutation((np.int64(2), np.int32(1))).image == (2, 1)


class TestExponentVector:
    def test_parse_inf(self):
        assert ExponentVector.parse("2,2,1,inf").exps == (2.0, 2.0, 1.0, INF)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            ExponentVector((0.5, 2.0))

    @pytest.mark.parametrize("exps", [("2", 2.0), (2.0, True), ("inf",), (None,), (math.nan,)],
                             ids=["text", "bool", "text-inf", "none", "nan"])
    def test_rejects_non_real_entries(self, exps):
        with pytest.raises(ValueError, match="real number"):
            ExponentVector(exps)

    def test_takes_real_numbers(self):
        got = ExponentVector((2, np.float64(1.5), np.int64(3), INF)).exps
        assert got == (2.0, 1.5, 3.0, INF) and all(type(p) is float for p in got)


def classifier_images(m, d):
    """All of S_m at d = 1.  At d = 2: the lifts of S_(m/2) (level block j
    holds axis block c(j)), the same lifts with axes and levels shuffled
    inside their blocks, and seeded random permutations of length m."""
    base = list(itertools.permutations(range(1, m // d + 1)))
    if d == 1:
        return base
    rng = np.random.default_rng(m)
    images = []
    for image in base:
        lifted = [(s - 1) * d + k for s in image for k in range(1, d + 1)]
        images.append(tuple(lifted))
        # Relabel each axis within its block, then reorder each level block.
        relabel = np.concatenate([rng.permutation(d) + s * d for s in range(m // d)])
        relabelled = [relabel[a - 1] + 1 for a in lifted]
        blocks = [relabelled[j:j + d] for j in range(0, m, d)]
        images.append(tuple(int(a) for b in blocks for a in rng.permutation(b)))
    images += [tuple(int(a) for a in rng.permutation(m) + 1) for _ in range(2000)]
    return images


class TestClassification:
    @pytest.mark.parametrize("m,d", [(4, 1), (6, 1), (8, 2), (12, 2)])
    def test_matches_exhaustive_oracle(self, m, d):
        found = set()
        for image in classifier_images(m, d):
            got = classify_permutation(Permutation(image), d)
            assert got == classify_oracle(image, d), image
            found |= got
        assert len(found) == (2 if m == 4 * d else 4)

    def test_class_counts_s4(self):
        counts = {"first-slice": 0, "second-slice": 0}
        for image in itertools.permutations(range(1, 5)):
            for name in classify_permutation(Permutation(image), 1):
                counts[name] += 1
        assert counts == {"first-slice": 4, "second-slice": 4}

    def test_class_counts_s6(self):
        counts = {}
        for image in itertools.permutations(range(1, 7)):
            for name in classify_permutation(Permutation(image), 1):
                counts[name] = counts.get(name, 0) + 1
        assert counts == {
            "first-FIO-slice": 4, "second-FIO-slice": 4,
            "first-FIO-symbol": 4, "second-FIO-symbol": 4,
        }

    def test_d2_slice_example(self):
        # x, xi_x axes in the first 2d levels; y, xi_y axes after.
        c = Permutation((1, 2, 5, 6, 3, 4, 7, 8))
        assert "first-slice" in classify_permutation(c, 2)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            classify_permutation(Permutation((1, 2, 3, 4, 5)), 1)


class TestMixedNorm:
    @pytest.mark.parametrize("rank,n", [(4, 4), (6, 3)])
    def test_against_loop_oracle(self, rank, n):
        rng = np.random.default_rng(42)
        images = [rng.permutation(rank) + 1 for _ in range(10)]
        exps_pool = [1.0, 1.5, 2.0, 3.0, INF]
        cases = 0
        while cases < 200:
            arr = rng.standard_normal((n,) * rank) + 1j * rng.standard_normal((n,) * rank)
            image = tuple(int(v) for v in images[cases % len(images)])
            exps = tuple(rng.choice(exps_pool, size=rank))
            got = mixed_norm(arr, Permutation(image), ExponentVector(exps))
            want = nested_norm_oracle(arr, list(image), list(exps))
            assert abs(got - want) <= 1e-12 * max(want, 1.0)
            cases += 1

    def test_all_two_norm_is_frobenius(self):
        arr = np.random.default_rng(0).standard_normal((3, 3, 3, 3))
        got = mixed_norm(arr, Permutation.identity(4), ExponentVector((2,) * 4))
        assert np.isclose(got, np.linalg.norm(arr.ravel()))

    @given(st.floats(1.0, 8.0), st.floats(1.0, 8.0))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, p1, p2):
        arr = np.arange(12.0).reshape(3, 4) + 1.0
        c, e = Permutation((2, 1)), ExponentVector((p1, p2))
        assert np.isclose(mixed_norm(3.5 * arr, c, e), 3.5 * mixed_norm(arr, c, e))

    def test_monotone_in_exponent(self):
        arr = np.random.default_rng(1).standard_normal((4, 4, 4, 4))
        c = Permutation((1, 3, 2, 4))
        vals = [mixed_norm(arr, c, ExponentVector((p, p, p, p)))
                for p in (1.0, 1.5, 2.0, 4.0, INF)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            mixed_norm(np.zeros((2, 2)), Permutation((1, 2, 3)),
                       ExponentVector((1, 1, 1)))

    def test_nonfinite_rejected(self):
        arr = np.zeros((2, 2))
        arr[0, 0] = np.inf
        with pytest.raises(ValueError):
            mixed_norm(arr, Permutation((1, 2)), ExponentVector((1, 1)))

    @pytest.mark.parametrize("entry", [1e200, 1e-200])
    def test_two_norm_neither_overflows_nor_underflows(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(np.full(4, entry), 2.0)
        assert got == pytest.approx(2 * entry, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [0, 1, 12, 31, 32, 512])
    def test_max_over_short_and_long_rows(self, m):
        # Many rows shorter than 32 entries are reduced column by column: the same
        # maxima as numpy's row reduction, nan included.
        a = np.abs(np.random.default_rng(m).standard_normal((3, 2000, m)))
        if m:
            a[1, 7, m // 2] = np.nan
        want = a.max(axis=-1, initial=0.0)
        np.testing.assert_array_equal(lp_norm(a, INF), want)
        np.testing.assert_array_equal(lp_norm(a[0, 0], INF), want[0, 0])

    def test_two_norm_retakes_only_extreme_rows(self):
        """Ordinary rows keep the plain sum-of-squares bits."""
        rng = np.random.default_rng(3)
        arr = np.abs(rng.standard_normal((5, 6)))
        row = arr[2].copy()
        arr[2] = row * 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(arr, 2.0)
        plain = np.sqrt((arr * arr).sum(axis=-1))
        assert np.array_equal(np.delete(got, 2), np.delete(plain, 2))
        assert got[2] == pytest.approx(1e-200 * np.linalg.norm(row), rel=1e-12, abs=0)


class TestMixedModulationNorm:
    def test_rank2_matches_manual(self):
        n = 6
        rng = np.random.default_rng(3)
        sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = periodized_gaussian(n)
        c, e = Permutation((1, 3, 2, 4)), ExponentVector((2, 2, 1.5, 1.5))
        got = mixed_modulation_norm(sym, w, c, e)
        v = stft(FiniteSignal(n, 2, sym), tensor_window(w, 2))
        assert np.isclose(got, mixed_norm(v, c, e))

    def test_array_must_be_n_by_n(self):
        with pytest.raises(ValueError, match=r"shape \(2, 8\)"):
            mixed_modulation_norm(np.ones((2, 8)), periodized_gaussian(4),
                                  Permutation((1, 3, 2, 4)), ExponentVector((2,) * 4))

    def test_exponents_must_match_rank(self):
        with pytest.raises(ValueError, match="must have length 4"):
            mixed_modulation_norm(np.ones((4, 4)), periodized_gaussian(4),
                                  Permutation((1, 3, 2, 4)), ExponentVector((2,) * 3))

    def test_two_norm_is_moyal(self):
        n = 8
        f = random_signal(n, 1, np.random.default_rng(4))
        w = periodized_gaussian(n)
        got = mixed_modulation_norm(f, w, Permutation((1, 2)),
                                    ExponentVector((2, 2)))
        assert np.isclose(got, f.norm() * w.norm())

    def test_delta_window_flat_spectrogram(self):
        n = 8
        ones = np.ones(n, dtype=np.complex128)
        v = stft(FiniteSignal(n, 1, ones), delta(n))
        assert np.allclose(np.abs(v), n ** -0.5)


def _symbol(kind, n, rank, rng):
    """Test symbols on Z_n^rank: i.i.d. Gaussian, a point mass, the diagonal
    tensor (the identity kernel at rank 2) or the DFT kernel
    e^(-2 pi i x.xi / n) chained over neighbouring variables (a chirp at
    rank 1)."""
    t = np.indices((n,) * rank)
    if kind == "random":
        return rng.standard_normal((n,) * rank) + 1j * rng.standard_normal((n,) * rank)
    if kind == "point":
        return (t == rng.integers(0, n, size=(rank,) + (1,) * rank)).all(axis=0) + 0j
    if kind == "identity":
        return (t == t[0]).all(axis=0) + 0j
    phase = (t[0] ** 2 if rank == 1 else sum(t[j] * t[j + 1] for j in range(rank - 1)))
    return np.exp(-2j * np.pi * phase / n)


def _moyal_case(rng):
    """(rank, n, permutation, exponents) whose innermost levels hold both
    axes of a nonempty set of variables, all with exponent 2, and whose
    outermost exponent is not 2, so that not every variable collapses."""
    rank = int(rng.integers(2, 4))
    n = int(rng.integers(2, 13 if rank < 3 else 9))
    v = rng.permutation(rank)[:rng.integers(1, rank)]
    inner = list(rng.permutation(np.concatenate([v + 1, v + 1 + rank])))
    outer = [a for a in rng.permutation(2 * rank) + 1 if a not in inner]
    exps = [2.0] * len(inner) + [float(rng.choice([1.0, 1.5, 2.0, 2.0, 3.0, INF]))
                                 for _ in outer[1:]]
    exps.append(float(rng.choice([1.0, 1.5, 3.0, INF])))
    return rank, n, inner + outer, exps


def _slab_case(rng, rank=3):
    """A (permutation, exponents), any permutation, whose innermost exponent is
    not 2, so that no variable collapses.  At rank 2, n runs from 20 to 23, where
    the n^4 transform is larger than one block, so that the norm streams."""
    n = int(rng.integers(2, 9) if rank == 3 else rng.integers(20, 24))
    exps = [float(rng.choice([1.0, 1.5, INF]))] + [
        float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])) for _ in range(2 * rank - 1)]
    return rank, n, list(rng.permutation(2 * rank) + 1), exps


_T32 = ((2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF))


class TestNormPlanner:
    """Each rule of mixed_modulation_norm's planner against the full STFT
    with the tensor-power window, which stft gathers in one piece."""

    @staticmethod
    def _check(case, window, kind, scale, seed):
        rank, n, image, exps = case
        rng = np.random.default_rng(seed)
        g = {"delta": delta(n), "gaussian": periodized_gaussian(n),
             "random": random_signal(n, 1, rng)}[window]
        sym = scale * _symbol(kind, n, rank, rng)
        c, e = Permutation(tuple(int(a) for a in image)), ExponentVector(tuple(exps))
        got = mixed_modulation_norm(sym, g, c, e)
        want = mixed_norm(stft(FiniteSignal(n, rank, sym), tensor_window(g, rank)), c, e)
        assert abs(got - want) <= 1e-12 * want, (case, got, want)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("kind", ["random", "point", "identity", "dft"])
    @pytest.mark.parametrize("window", ["delta", "gaussian", "random"])
    def test_moyal_rule_matches_full_stft(self, window, kind, scale):
        for seed in range(4):
            rng = np.random.default_rng([seed, len(kind), len(window)])
            case = _moyal_case(rng)
            _, n, image, exps = case
            assert _plan(n, Permutation(tuple(int(a) for a in image)),
                         ExponentVector(tuple(exps)))[2]
            self._check(case, window, kind, scale, seed)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("kind", ["random", "point", "identity", "dft"])
    @pytest.mark.parametrize("window", ["delta", "gaussian", "random"])
    def test_slab_rule_matches_full_stft(self, window, kind, scale):
        for seed in range(2):
            rng = np.random.default_rng([seed, len(kind), len(window), 3])
            case = _slab_case(rng)
            _, n, image, exps = case
            assert not _plan(n, Permutation(tuple(int(a) for a in image)),
                             ExponentVector(tuple(exps)))[0]
            self._check(case, window, kind, scale, seed)

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("window", ["delta", "gaussian", "random"])
    def test_rank2_slab_rule_matches_full_stft(self, window, scale):
        # A rank-2 norm without a Moyal pair streams once its n^4 transform is
        # larger than one block.
        for seed, kind in enumerate(["random", "point", "identity", "dft"]):
            rng = np.random.default_rng([seed, len(window), 2])
            case = _slab_case(rng, 2)
            _, n, image, exps = case
            assert not _plan(n, Permutation(tuple(int(a) for a in image)),
                             ExponentVector(tuple(exps)))[0]
            self._check(case, window, kind, scale, seed)

    def test_rank2_slab_rule_takes_every_permutation(self):
        # Each rank-2 permutation at an odd n, all-2 (SHARP-T4.3/T4.4's b1 at p = 2)
        # and with an innermost exponent other than 2, streams.  All-2, v is the
        # variable whose two axes are levels 1 and 2 when they pair; else v is empty.
        rng = np.random.default_rng(21)
        for image in itertools.permutations(range(1, 5)):
            pair = [(image[0] - 1) % 2] if abs(image[0] - image[1]) == 2 else []
            for exps, v in (((2.0,) * 4, pair), (_slab_case(rng, 2)[3], [])):
                plan = _plan(21, Permutation(image), ExponentVector(tuple(exps)))
                assert plan[:3] == (False, [a - 1 for a in image if a <= 2 and a - 1 not in v], v)
                self._check((2, 21, image, exps), "random", "random", 1.0, 21)

    @pytest.mark.parametrize("image,exps", [
        ((1, 2, 3, 4), (2, 2, 2, 2)),        # all-2 with no closed proper prefix
        ((1, 3, 2, 4), (INF, 2, 1.5, 1.5)),  # level 1 on k_1: absolute values kept
        ((4, 1, 2, 3), (1.5, 1.5, 1.5, 2)),  # T4.5a: level 1 on l_w, row blocks
    ])
    def test_rank2_streams_above_one_block(self, monkeypatch, image, exps):
        # Up to n = 19 (n^4 <= 2^17) the full STFT keeps its bits; from n = 20 the
        # streamed loop gives the same bits on one worker and on three.
        c, e = Permutation(image), ExponentVector(exps)
        assert _plan(19, c, e)[0] and not _plan(20, c, e)[0]
        rng = np.random.default_rng(19)
        f, g = random_signal(19, 2, rng), random_signal(19, 1, rng)
        assert mixed_modulation_norm(f, g, c, e) == mixed_norm(stft(f, g), c, e)
        for n in (20, 23):
            rng = np.random.default_rng(n)
            f, g = random_signal(n, 2, rng), random_signal(n, 1, rng)
            norms = []
            for cpus in (1, 3):
                monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: cpus)
                norms.append(mixed_modulation_norm(f, g, c, e))
            assert norms[0] == norms[1], (n, norms)

    # A streamed block takes 24 bytes an entry (16, and 8 for its absolute values).
    # The full STFT lives on beside its absolute values and takes 8 more for
    # level 1's temporaries, but not where that level is a plain max or sum.
    _NO_TEMPS = {((1, 2), (INF, 1))}
    # (prefix, group, block, first-contraction results, R, workers) of each streamed
    # plan at n = 12 on two CPUs.  With one group of w2's shifts the prefix is the
    # transform of every variable of u but w, and the loop reads it.  T4.4b and
    # T4.5b split y's 12 shifts in two groups of 6, two arrays of a group's 6 * 12^4
    # entries beside x's 12^4; a block then holds one shift of the group's 10,368 rows, and
    # R holds 12^3 results.  A slab smaller than a block shares it with other shifts.
    _T44B = (12 ** 4, 6 * 12 ** 4, 10368 * 12, 10368, 12 ** 3, 2)
    _STREAMED = {((2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF)): (12 ** 4, 0, 6 * 12 ** 4,
                                                                  6 * 12 ** 3, 12 ** 2, 2),
                 ((2, 5, 1, 4, 3, 6), (2, 2, 2, 2, 1, INF)): (12 ** 3, 0, 12 ** 4, 12 ** 2,
                                                              12 ** 2, 1),
                 ((6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)): _T44B,
                 ((6, 5, 1, 2, 4, 3), (INF, 2, 1.5, 1.5, 1.5, 1)): _T44B,
                 ((1, 3, 2, 4), (2, 2, 1.5, 1.5)): (12 ** 2, 0, 12 ** 3, 12 ** 2, 12 ** 2, 1),
                 ((2, 5, 1, 4, 6, 3), (2,) * 6): (12 ** 3, 0, 12 ** 4, 12 ** 2, 12, 1),
                 ((4, 2, 1, 5, 6, 3), (2, 2, 2, 2, 2, 1)): (12 ** 3, 0, 12 ** 4, 12 ** 2, 12, 1),
                 ((6, 1, 4, 2, 5, 3), (1.5, 2, 2, 1.5, 1.5, 1)): _T44B}

    @pytest.mark.parametrize("image,exps,rule,power", [
        ((2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF), ([0, 2], [1]), 4),     # T3.2
        ((2, 5, 1, 4, 3, 6), (2, 2, 2, 2, 1, INF), ([2], [0, 1]), 3),         # T3.2, p = 2
        ((6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1), ([0, 1, 2], []), 5),   # T4.4b
        ((6, 5, 1, 2, 4, 3), (INF, 2, 1.5, 1.5, 1.5, 1), ([0, 1, 2], []), 5),  # T4.5b
        ((1, 3, 2, 4), (2, 2, 1.5, 1.5), ([1], [0]), 2),                      # T2.9
        ((4, 1, 2, 3), (2, 1.5, 1.5, 1.5), ([0, 1], []), 4),                  # T4.5a
        ((4, 1, 2, 3), (2, 2, 2, 2), ([0, 1], []), 4),                        # T4.5a, p = 2
        ((1, 2), (2, 2), ([0], []), 2),                                       # all-2, rank 1
        ((2, 5, 1, 4, 6, 3), (2,) * 6, ([2], [0, 1]), 3),                     # all-2, rank 3
        ((1, 2), (2, 1.5), ([0], []), 2),                                     # T4.2a
        ((1, 2), (INF, 1), ([0], []), 2),                                     # T4.2a's g
        ((1, 2, 3, 4), (2, 2, 2, 1.5), ([0, 1], []), 4),          # l^2 levels, no pair
        ((4, 2, 1, 5, 6, 3), (2, 2, 2, 2, 2, 1), ([2], [0, 1]), 3),  # pairs in any order
        ((4, 1, 2, 3), (1.5, 1.5, 1.5, 2), ([0, 1], []), 4),                  # innermost 1.5
        ((6, 1, 4, 2, 5, 3), (1.5, 2, 2, 1.5, 1.5, 1), ([0, 1, 2], []), 5),   # streamed, 1.5
    ])
    def test_plan_of_each_theorem(self, monkeypatch, image, exps, rule, power):
        monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: 2)
        c, e = Permutation(image), ExponentVector(exps)
        full, u, v = _plan(12, c, e)[:3]
        assert (u, v) == rule and full == ((image, exps) not in self._STREAMED)
        per_entry = 24 if (image, exps) in self._NO_TEMPS else 32
        if (image, exps) in self._STREAMED:  # the transforms, each worker's block and results, R
            prefix, group, block, firsts, stacked, workers = self._STREAMED[image, exps]
            want = (16 * (prefix + 2 * group) + workers * (24 * block + 48 * firsts + 2 ** 18)
                    + 8 * stacked)
        else:  # the full STFT: the one block of every shift, and the array it is cut from
            want = per_entry * 12 ** power + 64 * 12 ** (power - 1) + 2 ** 18
        assert planned_bytes(12, c, e) == want + 16 * 12 ** 2

    @pytest.mark.parametrize("n,image,exps", [
        (24, (1, 3, 2, 4), (1, 2, 1.5, 1.5)),                # streamed, innermost 1
        (24, (1, 3, 2, 4), (INF, 2, 1.5, 1.5)),              # streamed, innermost inf
        (24, (1, 2, 3, 4), (2, 2, 1.5, 1.5)),                # streamed, innermost 2
        (24, (4, 1, 2, 3), (1.5, 1.5, 1.5, 2)),              # streamed, innermost 1.5
        (256, (1, 3, 2, 4), (2, 2, 1.5, 1.5)),               # streamed, T2.9
        (16, (2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF)),  # streamed, T3.2
        (16, (6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),  # streamed, T4.4b
        (16, (6, 1, 4, 2, 5, 3), (1.5, 2, 2, 1.5, 1.5, 1)),  # streamed, innermost 1.5
        (16, (1, 4, 2, 3, 6, 5), (1.5, 1.5, 2, 2, 1, INF)),  # streamed, l outermost
        (12, (6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),  # streamed, T4.4b, ragged
        (32, (2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF)),  # streamed, T3.2, row blocks
        (64, (2, 4, 1, 3), (2, 2, 2, 2)),                    # streamed, SHARP b1 at p = 2
        (16, (1, 3, 2, 4), (1, 2, 1.5, 1.5)),                # full STFT, innermost 1
        (16, (4, 1, 2, 3), (1.5, 1.5, 1.5, 2)),              # full STFT, T4.5a
        (64, (1, 3, 2, 4), (INF, 2, 1.5, 1.5)),              # streamed, level 1 on k_1
        (32, (1, 2, 3, 4), (2, 2, 2, 2)),                    # streamed, all-2, no pair
        (16, (6, 5, 1, 2, 4, 3), (INF, 2, 1.5, 1.5, 1.5, 1)),  # streamed, T4.5b, y split
        (24, (6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),  # streamed, T4.4b, one y shift
    ])
    def test_planned_bytes_bound_the_working_set(self, monkeypatch, n, image, exps):
        # The plan holds the traced peak of the norm on this host's workers, and on
        # one worker it holds that peak and at most half again.  On two workers the
        # peak swings as their blocks happen to overlap or not, so the plan's lower
        # side is checked on one worker; test_each_worker_adds_one_workers_term
        # checks by arithmetic what each further worker adds.  An untraced call
        # first makes the imports (numpy.fft's, the thread pool's) that outlive it.
        c, e = Permutation(image), ExponentVector(exps)
        obj = random_signal(n, len(image) // 2, np.random.default_rng(n)).grid
        window = periodized_gaussian(n)
        mixed_modulation_norm(obj, window, c, e)

        def peak():
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                mixed_modulation_norm(obj, window, c, e)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()

        got = peak()
        assert got <= planned_bytes(n, c, e), (got, planned_bytes(n, c, e))
        monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: 1)
        got = peak()
        assert got <= planned_bytes(n, c, e) <= 1.5 * got, (got, planned_bytes(n, c, e))

    @pytest.mark.parametrize("n,image,exps", [
        (256, (1, 3, 2, 4), (2, 2, 1.5, 1.5)),               # T2.9: one group
        (64, (2, 4, 1, 3), (2, 2, 2, 2)),                    # SHARP b1 at p = 2: 2 groups
        (16, (2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF)),  # T3.2: 8 groups of xi
        (16, (6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),  # T4.4b: y split
        (64, (1, 3, 2, 4), (INF, 2, 1.5, 1.5)),              # level 1 on k_1: no first
        (16, (4, 1, 2, 3), (1.5, 1.5, 1.5, 2)),              # full STFT: one worker
    ])
    def test_each_worker_adds_one_workers_term(self, monkeypatch, n, image, exps):
        # Each worker beyond the first adds its block (24 bytes an entry), its
        # first contractions' results (48 bytes each, or 16 + 32 / n per absolute
        # value without one) and numpy's iterator buffers, up to one worker per
        # group of w's shifts; the two arrays of w2's groups are held once.
        # (Where R is large, as for T3.2 from n = 32, contracting R can outweigh
        # the loop, and a worker adds less.)
        c, e = Permutation(image), ExponentVector(exps)
        sizes = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: cpus)
            sizes.append(planned_bytes(n, c, e))
        full, u, v, (m, _), (wide, shifts, step, workers), _ = _plan(n, c, e)
        slab = wide * n ** (2 * len(u) - 2 + len(v))
        term = (24 * shifts * step * n ** (1 + len(v))
                + (48 * n if m > 1 else 16 * n + 32) * shifts * slab // (m * n))
        groups = -(-n // shifts)
        grown = [b - a for a, b in zip(sizes, sizes[1:])]
        assert grown == [term + 2 ** 18 if cpus < groups else 0 for cpus in (1, 2)], (grown, term)
        assert full == (grown == [0, 0])

    def test_t44b_at_64_plans_under_one_gib(self):
        # y's transform is taken one time shift at a time, in two arrays: 3 * 16 n^4
        # bytes with x's, not the 16 n^5 of every shift of x and y at once (17.5 GiB).
        c, e = Permutation((6, 1, 4, 2, 5, 3)), ExponentVector((INF, 2, 2, 1.5, 1.5, 1))
        assert planned_bytes(64, c, e) <= 2 ** 30

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_t45a_at_64_keeps_one_group_on_any_workers(self, monkeypatch, cpus):
        # T4.5a keeps x's 64 shifts in one group at n = 64: two arrays of 32
        # shifts each would price above it on two workers (13.4 against 11.5 MB).
        # Each worker adds only its block of 2048 rows, their 64^2 level-1 results
        # and its iterator buffers, beside the 64^3 transform and R's 64^2 floats.
        monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: cpus)
        c, e = Permutation((4, 1, 2, 3)), ExponentVector((2, 1.5, 1.5, 1.5))
        assert _plan(64, c, e)[4] == (64, 1, 2048, cpus)
        want = (16 * 64 ** 3 + cpus * (24 * 2 ** 17 + 48 * 64 ** 2 + 2 ** 18) + 8 * 64 ** 2
                + 16 * 64 ** 2)
        assert planned_bytes(64, c, e) == want

    def test_no_block_is_built_whole(self):
        # Every streamed plan builds a group in row blocks of at most 2^17 entries,
        # or one row where a row is larger, whichever axis level 1 lies on, and
        # takes w2's transform in groups of at most 2^17 entries, or one shift,
        # unless one group of every shift holds less: each rank-2 permutation at
        # n = 64, all-2 and at drawn exponents, and 60 rank-3 permutations at n = 16.
        rng = np.random.default_rng(30)
        cases = [(64, image, exps) for image in itertools.permutations(range(1, 5))
                 for exps in ((2.0,) * 4, tuple(rng.choice([1.0, 1.5, 2.0, 3.0, INF], 4)))]
        perms = list(itertools.permutations(range(1, 7)))
        cases += [(16, perms[i], tuple(rng.choice([1.0, 1.5, 2.0, 3.0, INF], 6)))
                  for i in rng.choice(len(perms), 60, replace=False)]
        split = 0
        for n, image, exps in cases:
            full, u, v, _, (wide, shifts, step, _), _ = _plan(n, Permutation(image),
                                                              ExponentVector(exps))
            row, shift = n ** (1 + len(v)), n ** (2 * len(u) - 2 + len(v))
            assert full or shifts * step * row <= max(2 ** 17, row), (n, image, exps)
            assert wide == n or wide * shift <= max(2 ** 17, shift), (n, image, exps)
            split += wide < n
        assert split >= 60  # every rank-3 plan at n = 16 splits

    @pytest.mark.parametrize("n", [9, 12, 16, 20])
    @pytest.mark.parametrize("image,exps", [
        _T32,
        ((6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),    # T4.4b
        ((6, 5, 1, 2, 4, 3), (INF, 2, 1.5, 1.5, 1.5, 1)),  # T4.5b
        ((1, 4, 2, 3, 6, 5), (1.5, 1.5, 2, 2, 1, INF)),    # level 1 on k_1: absolute values
    ])
    def test_workers_keep_every_bit(self, monkeypatch, n, image, exps):
        # At these n most plans end on a ragged row block or group of shifts (at
        # n = 12, T4.4b's y shifts go in two groups of 6 and a block holds one of
        # the group's xi shifts).  One worker and three give the same bits, and the
        # full STFT agrees where it fits in memory.  At n = 20 the full STFT alone
        # takes 1 GiB.
        self._check_workers(monkeypatch, n, image, exps, oracle=n <= 12)

    def test_workers_keep_every_bit_with_x_split(self, monkeypatch):
        # From n = 23 T3.2 takes its x shifts in groups too: 4 to a group at n = 32.
        c, e = Permutation(_T32[0]), ExponentVector(_T32[1])
        assert _plan(32, c, e)[4][0] == 4
        self._check_workers(monkeypatch, 32, *_T32, oracle=False)

    @pytest.mark.parametrize("block", [2 ** 10, 2 ** 13])
    def test_split_groups_match_full_stft(self, monkeypatch, block):
        # Blocks this small split w2's shifts at n = 7-9 into groups of one shift,
        # or of 2 or 3 (ragged at n = 7) for rank-3 plans without a Moyal pair at
        # 2^13: T3.2, T4.4b and T4.5b on every window, and 40 sampled permutations.
        monkeypatch.setattr("gaborlab.mixednorm.BLOCK", block)
        rng = np.random.default_rng(block)
        perms = list(itertools.permutations(range(1, 7)))
        named = [_T32, ((6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),
                 ((6, 5, 1, 2, 4, 3), (INF, 2, 1.5, 1.5, 1.5, 1))]
        cases = [(image, exps, window) for image, exps in named
                 for window in ("delta", "gaussian", "random")]
        cases += [(perms[i], tuple(rng.choice([1.0, 1.5, 2.0, 3.0, INF], 6)),
                   ("delta", "gaussian", "random")[k % 3])
                  for k, i in enumerate(rng.choice(len(perms), 40, replace=False))]
        split = 0
        for k, (image, exps, window) in enumerate(cases):
            n = 7 + k % 3
            split += _plan(n, Permutation(image), ExponentVector(exps))[4][0] < n
            self._check((3, n, image, exps), window, "random", 1.0, k)
        assert split >= len(cases) - (block > 2 ** 10) * 3  # T3.2 splits only at 2^10

    @pytest.mark.parametrize("image,exps", [
        ((1, 3, 2, 4), (2, 2, 1.5, 1.5)),    # T2.9
        ((2, 4, 1, 3), (2, 2, 1.5, 1.5)),    # SHARP-T4.3/T4.4's b1 at p = 1.5
        ((2, 4, 1, 3), (INF, 2, 1.5, 1.5)),  # SHARP-T4.3's b1 under --raise 1=inf
    ])
    def test_workers_keep_every_bit_at_rank_2(self, monkeypatch, image, exps):
        # A rank-2 Moyal plan takes as many shifts to a group as fill one block:
        # one group of all 32 shifts at n = 32, two groups of 32 at n = 64, which
        # the workers share.  With level 1 on k_2 a group keeps the absolute
        # values of its n^2 rows: 4 shifts to a block at n = 32, and at n = 64
        # one shift in two row blocks.
        c, e = Permutation(image), ExponentVector(exps)
        shifts = (32, 32) if exps[0] == 2 else (4, 1)
        assert (_plan(32, c, e)[4][1], _plan(64, c, e)[4][1]) == shifts
        self._check_workers(monkeypatch, 32, image, exps, oracle=True)
        self._check_workers(monkeypatch, 64, image, exps, oracle=False)

    @staticmethod
    def _check_workers(monkeypatch, n, image, exps, oracle):
        rank, c, e = len(image) // 2, Permutation(image), ExponentVector(exps)
        rng = np.random.default_rng(n)
        f, g = random_signal(n, rank, rng), random_signal(n, 1, rng)
        norms = []
        for cpus in (1, 3):
            monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: cpus)
            norms.append(mixed_modulation_norm(f, g, c, e))
        assert norms[0] == norms[1]
        if oracle:
            want = mixed_norm(stft(f, tensor_window(g, rank)), c, e)
            assert abs(norms[0] - want) <= 1e-12 * want, (norms[0], want)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_all_2_norm_still_takes_the_transform(self, rank):
        # Collapsing every variable would give Moyal's closed form by
        # construction; v stops at the largest closed proper prefix, so at least
        # one variable is transformed, and the closed form checks it.
        n = 6
        e = ExponentVector((2.0,) * (2 * rank))
        for image in itertools.permutations(range(1, 2 * rank + 1)):
            sizes = [k for k in range(rank)
                     if len({(a - 1) % rank for a in image[:2 * k]}) == k]
            v = sorted({(a - 1) % rank for a in image[:2 * max(sizes)]})
            _, u, got_v = _plan(n, Permutation(image), e)[:3]
            assert got_v == v and u and sorted(u + v) == list(range(rank)), image
            assert (len(u) == 1) == (abs(image[-1] - image[-2]) == rank), image
        rng = np.random.default_rng(rank)
        f = random_signal(n, rank, rng)
        g = random_signal(n, 1, rng)
        c = Permutation.identity(2 * rank)
        assert _plan(n, c, e)[2] == []
        want = f.norm() * g.norm() ** rank
        assert mixed_modulation_norm(f, g, c, e) == pytest.approx(want, rel=1e-12)
        # The benchmark's all-2 spot checks transform one variable: the norm
        # matches both Moyal's closed form and the full STFT.
        if rank == 1:
            return
        c = Permutation({2: (1, 3, 2, 4), 3: (2, 5, 1, 4, 3, 6)}[rank])
        assert len(_plan(n, c, e)[1]) == 1
        for g in (delta(n), periodized_gaussian(n), random_signal(n, 1, rng)):
            got = mixed_modulation_norm(f, g, c, e)
            for want in (f.norm() * g.norm() ** rank,
                         mixed_norm(stft(f, tensor_window(g, rank)), c, e)):
                assert abs(got - want) <= 1e-12 * want, (g, got, want)

    @pytest.mark.parametrize("case", [
        (2, 7, (1, 3, 2, 4), (2, 2, 1.5, INF)),                # l^2 collapse
        (3, 5, (2, 5, 1, 4, 3, 6), (2, 2, 1.5, 1.5, 1, INF)),  # l^2 collapse
        (3, 5, (6, 1, 4, 2, 5, 3), (INF, 2, 2, 1.5, 1.5, 1)),  # k outermost
        (3, 5, (6, 1, 4, 2, 3, 5), (INF, 2, 2, 1.5, 1.5, 1)),  # l outermost
    ])
    def test_tensor_window_gives_the_same_norm(self, case):
        # The norm refuses an r-dimensional window and names the composition that
        # takes one; with the tensor power of g, that composition is the oracle
        # of the 1-D window's norm.
        rank, n, image, exps = case
        rng = np.random.default_rng(n)
        f = random_signal(n, rank, rng)
        g = random_signal(n, 1, rng)
        c, e = Permutation(image), ExponentVector(exps)
        with pytest.raises(ValueError, match=re.escape("mixed_norm(stft(F, G), c, exps)")):
            mixed_modulation_norm(f, tensor_window(g, rank), c, e)
        want = mixed_norm(stft(f, tensor_window(g, rank)), c, e)
        assert mixed_modulation_norm(f, g, c, e) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("image", [(1, 3, 2, 4), (1, 2, 3, 4)])  # streamed, full STFT
    def test_overflow_raises_floating_point_error(self, image):
        # Finite entries of 1e308 overflow the transform on either route; that is
        # no fault of the input, so neither route says "entries must be finite".
        n = 8
        c, e = Permutation(image), ExponentVector((2, 2, 1.5, 1.5))
        assert _plan(n, c, e)[0] == (image == (1, 2, 3, 4))
        with pytest.raises(FloatingPointError), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mixed_modulation_norm(np.full((n, n), 1e308), FiniteSignal(n, 1, np.ones(n)), c, e)

    def test_full_stft_keeps_its_bits(self):
        # Without an l^2 pair or a slab the norm is mixed_norm of stft, bit for bit.
        n = 8
        rng = np.random.default_rng(5)
        f = random_signal(n, 2, rng)
        g = random_signal(n, 1, rng)
        c, e = Permutation((4, 1, 2, 3)), ExponentVector((2, 1.5, 1.5, 1.5))
        assert mixed_modulation_norm(f, g, c, e) == mixed_norm(stft(f, g), c, e)


# Mixed-norm invariants over random small arrays, orders and exponents.
EXPONENT = st.one_of(st.floats(1.0, 8.0), st.just(INF))
ENTRY = st.floats(-100.0, 100.0, allow_subnormal=False)


@st.composite
def norm_inputs(draw, min_rank=1):
    rank = draw(st.integers(min_rank, 4))
    shape = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    arr = np.array(draw(st.lists(ENTRY, min_size=math.prod(shape),
                                 max_size=math.prod(shape)))).reshape(shape)
    image = draw(st.permutations(range(1, rank + 1)))
    exps = draw(st.lists(EXPONENT, min_size=rank, max_size=rank))
    return arr, list(image), exps


def _norm(arr, image, exps):
    return mixed_norm(arr, Permutation(tuple(image)), ExponentVector(tuple(exps)))


class TestMixedNormInvariants:
    @given(norm_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_lowering_an_exponent_never_decreases(self, inputs, data):
        arr, image, exps = inputs
        j = data.draw(st.integers(0, len(exps) - 1))
        lowered = list(exps)
        lowered[j] = data.draw(st.floats(1.0, min(exps[j], 8.0)))
        assert _norm(arr, image, lowered) >= _norm(arr, image, exps) * (1 - 1e-12)

    @given(norm_inputs(min_rank=2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_minkowski_swap_never_decreases(self, inputs, data):
        """Levels j, j + 1 with p_j <= p_(j+1): contracting the outer axis
        first, with its larger exponent, gives a norm at least as large."""
        arr, image, exps = inputs
        j = data.draw(st.integers(0, len(exps) - 2))
        exps[j], exps[j + 1] = sorted((exps[j], exps[j + 1]))
        swapped_image, swapped_exps = list(image), list(exps)
        swapped_image[j:j + 2] = image[j + 1], image[j]
        swapped_exps[j:j + 2] = exps[j + 1], exps[j]
        assert (_norm(arr, swapped_image, swapped_exps)
                >= _norm(arr, image, exps) * (1 - 1e-12))
