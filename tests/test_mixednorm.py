"""Mixed norms, permutation classes and mixed modulation norms.

The contraction oracle below recomputes nested l^p norms with explicit
Python loops; the classifier oracle re-derives every class membership by
checking the block conditions positionally, independent of the library's
set-based implementation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab.mixednorm import (
    ExponentVector,
    Permutation,
    classify_permutation,
    mixed_modulation_norm,
    mixed_norm,
    tensor_window,
)
from gaborlab.operators import SymbolTable
from gaborlab.signals import delta, periodized_gaussian, random_signal, stft

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


class TestMixedModulationNorm:
    def test_rank2_matches_manual(self):
        n = 6
        rng = np.random.default_rng(3)
        sym = SymbolTable(n, 2, rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)))
        w = periodized_gaussian(n)
        c, e = Permutation((1, 3, 2, 4)), ExponentVector((2, 2, 1.5, 1.5))
        got = mixed_modulation_norm(sym, w, c, e)
        v = stft(sym.as_signal(), tensor_window(w, 2)).values
        assert np.isclose(got, mixed_norm(v, c, e))

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
        from gaborlab.signals import FiniteSignal
        v = stft(FiniteSignal(n, 1, ones), delta(n)).values
        assert np.allclose(np.abs(v), n ** -0.5)


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
