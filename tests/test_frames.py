"""Gabor systems: bounds, duals, tight windows, norm equivalence, and the
lattice-coefficient map against a dense table of Gabor elements."""

import numpy as np
import pytest

from gaborlab.fio import fio_slice_family
from gaborlab.frames import (
    GaborSystem,
    NotAFrameError,
    analyze,
    banach_frame_equivalence,
    canonical_tight_window,
    dual_window,
    frame_bounds,
    frame_operator,
    synthesize,
)
from gaborlab.mixednorm import ExponentVector, Permutation
from gaborlab.operators import PhaseTable, SymbolTable
from gaborlab.signals import FiniteSignal, delta, periodized_gaussian, random_signal, stft


def _rand(n, seed):
    return random_signal(n, 1, np.random.default_rng(seed))


def element_rows(sys, window=None):
    """Reference: rows M_l T_k g over the lattice (time-major, then frequency),
    one dense (n^2 / ab) x n table."""
    g = (window or sys.window).values
    n = sys.n
    t = np.arange(n)
    shifts = np.stack([np.roll(g, k) for k in range(0, n, sys.a)])
    mods = np.exp(2j * np.pi * np.outer(np.arange(0, n, sys.b), t) / n)
    return (shifts[:, None, :] * mods[None, :, :]).reshape(-1, n)


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


LATTICES = [(8, 1, 1), (8, 1, 8), (8, 8, 1), (6, 2, 3), (24, 3, 4), (32, 4, 4),
            (60, 5, 6)]


class TestFrameBounds:
    @pytest.mark.parametrize("n", [8, 16])
    def test_delta_full_lattice_exact(self, n):
        a, b = frame_bounds(GaborSystem(delta(n), 1, 1))
        assert a == pytest.approx(n, abs=1e-10)
        assert b == pytest.approx(n, abs=1e-10)

    def test_full_lattice_any_window(self):
        """a = b = 1 gives S = n ||g||^2 I."""
        g = _rand(8, 0)
        sys = GaborSystem(g, 1, 1)
        s = frame_operator(sys).entries
        assert np.allclose(s, 8 * g.norm() ** 2 * np.eye(8), atol=1e-10)

    def test_undersampled_not_frame(self):
        sys = GaborSystem(periodized_gaussian(8), 4, 4)
        with pytest.raises(NotAFrameError):
            dual_window(sys)

    def test_lattice_must_divide(self):
        with pytest.raises(ValueError):
            GaborSystem(periodized_gaussian(8), 3, 2)

    @pytest.mark.parametrize("a,b,field", [(2.0, 2, "a"), (2, 2.0, "b"), (True, 2, "a"),
                                           (2, True, "b")])
    def test_lattice_steps_must_be_integers(self, a, b, field):
        # A float step used to construct and fail later inside frame_bounds.
        g = periodized_gaussian(8)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GaborSystem(g, a, b)
        assert (frame_bounds(GaborSystem(g, np.int64(2), np.int64(2)))
                == frame_bounds(GaborSystem(g, 2, 2)))


class TestDualAndTight:
    @pytest.mark.parametrize("seed", range(20))
    def test_dual_reconstruction(self, seed):
        n = 16
        g = _rand(n, 100 + seed)
        sys = GaborSystem(g, 2, 2)
        gamma = dual_window(sys)
        f = _rand(n, 200 + seed)
        rec = synthesize(sys.with_window(gamma), analyze(sys, f))
        assert np.max(np.abs(rec.values - f.values)) <= 1e-10

    def test_tight_window_bounds_one(self):
        sys = GaborSystem(periodized_gaussian(16), 2, 2)
        tight = canonical_tight_window(sys)
        a, b = frame_bounds(GaborSystem(tight, 2, 2))
        assert abs(a - 1) <= 1e-10 and abs(b - 1) <= 1e-10

    def test_dual_of_tight_is_itself(self):
        sys = GaborSystem(periodized_gaussian(16), 2, 2)
        tight = canonical_tight_window(sys)
        tsys = GaborSystem(tight, 2, 2)
        assert np.allclose(dual_window(tsys).values, tight.values, atol=1e-10)

    @pytest.mark.parametrize("n", [8, 16])
    def test_dual_when_frame_operator_is_diagonal(self, n):
        """a = n, b = 1 gives S = n diag |g|^2, so gamma = g / (n |g|^2);
        at n = 16 the condition number of S is about 2e10."""
        g = periodized_gaussian(n).values
        gamma = dual_window(GaborSystem(FiniteSignal(n, 1, g), n, 1)).values
        want = g / (n * np.abs(g) ** 2)
        assert np.max(np.abs(gamma - want)) <= 1e-12 * np.max(np.abs(want))

    def test_frame_operator_diagonalized_by_dual(self):
        sys = GaborSystem(_rand(8, 3), 2, 4)
        s = frame_operator(sys).entries
        gamma = dual_window(sys)
        assert np.allclose(s @ gamma.values, sys.window.values, atol=1e-10)


class TestAnalysisSynthesis:
    def test_coefficient_shape(self):
        sys = GaborSystem(periodized_gaussian(16), 2, 4)
        coef = analyze(sys, _rand(16, 1))
        assert coef.shape == (8, 4)

    def test_adjointness(self):
        sys = GaborSystem(_rand(8, 4), 2, 2)
        f = _rand(8, 5)
        coef = np.random.default_rng(6).standard_normal((4, 4)) + 0j
        lhs = np.vdot(coef, analyze(sys, f))
        rhs = np.vdot(synthesize(sys, coef).values, f.values).conjugate()
        assert np.isclose(lhs, np.conj(rhs))

    def test_parseval_expansion(self):
        sys = GaborSystem(periodized_gaussian(16), 2, 2)
        tight = GaborSystem(canonical_tight_window(sys), 2, 2)
        f = _rand(16, 7)
        rec = synthesize(tight, analyze(tight, f))
        assert np.allclose(rec.values, f.values, atol=1e-10)


class TestBanachFrameEquivalence:
    def test_full_lattice_ratio_one(self):
        n = 8
        sys = GaborSystem(periodized_gaussian(n), 1, 1)
        testset = [_rand(n, 300 + i) for i in range(5)]
        for exps in [(2.0, 2.0), (1.0, np.inf), (1.5, 1.0)]:
            lo, hi = banach_frame_equivalence(sys, Permutation((1, 2)),
                                              ExponentVector(exps), testset)
            assert abs(lo - 1) <= 1e-10 and abs(hi - 1) <= 1e-10

    def test_redundant_lattice_bounded_spread(self):
        n = 16
        sys = GaborSystem(periodized_gaussian(n), 2, 2)
        testset = [_rand(n, 400 + i) for i in range(10)]
        lo, hi = banach_frame_equivalence(sys, Permutation((1, 2)),
                                          ExponentVector((2.0, 2.0)), testset)
        assert 0 < lo <= hi < 10

    def test_rejects_non_frame(self):
        sys = GaborSystem(periodized_gaussian(8), 4, 4)
        with pytest.raises(NotAFrameError):
            banach_frame_equivalence(sys, Permutation((1, 2)),
                                     ExponentVector((2.0, 2.0)), [_rand(8, 0)])


def _system(n, a, b, window):
    g = periodized_gaussian(n) if window == "gauss" else _rand(n, 10 * n + a + b)
    return GaborSystem(g, a, b)


@pytest.mark.parametrize("window", ["gauss", "random"])
@pytest.mark.parametrize("n,a,b", LATTICES)
class TestLatticeCoefficientOracle:
    """Walnut frame operator, folded-FFT analysis and its adjoint agree with
    the dense element rows, and analysis with the sampled STFT, to 1e-12
    relative."""

    @pytest.fixture
    def sys(self, n, a, b, window):
        return _system(n, a, b, window)

    def test_frame_operator(self, sys):
        rows = element_rows(sys)
        assert _close(frame_operator(sys).entries, rows.T @ rows.conj())

    def test_analyze(self, sys):
        f = _rand(sys.n, 1)
        want = (element_rows(sys).conj() @ f.values).reshape(sys.n // sys.a, -1)
        assert _close(analyze(sys, f), want)

    def test_analyze_samples_the_stft(self, sys):
        """The lattice coefficients are the STFT sampled on aZ_n x bZ_n, times n^(1/2)."""
        f = _rand(sys.n, 1)
        want = np.sqrt(sys.n) * stft(f, sys.window)[::sys.a, ::sys.b]
        assert _close(analyze(sys, f), want)

    def test_synthesize(self, sys):
        rng = np.random.default_rng(2)
        shape = (sys.n // sys.a, sys.n // sys.b)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = element_rows(sys).T @ coeffs.ravel()
        assert _close(synthesize(sys, coeffs).values, want)


# The reference dual window solves S gamma = g with the dense S of the
# element rows, whose rounding noise off Walnut's pattern the solve amplifies
# by the condition number of S.  Critically sampled Gaussian systems (ab = n)
# are left out: there that number reaches 7e4 at n = 8, a = 8, b = 1 and 2e10
# at n = 16, a = 16, b = 1, and the dense-S dual is off by 1e-11 and 1e-6
# (see test_dual_when_frame_operator_is_diagonal).
@pytest.mark.parametrize("n,a,b,window", [
    (n, a, b, w) for n, a, b in LATTICES for w in ("gauss", "random")
    if not (w == "gauss" and a * b == n)])
def test_fio_slices_match_element_rows(n, a, b, window):
    sys = _system(n, a, b, window)
    rng = np.random.default_rng(3)
    shape = (n, n, n)
    sym = SymbolTable(n, 3, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    psi = PhaseTable(n, 3, rng.random(shape))
    weights, ops = fio_slice_family(sym, psi, sys)
    rows = element_rows(sys)
    assert _close(weights.ravel(), rows.conj().sum(axis=1))
    gamma = np.linalg.solve(rows.T @ rows.conj(), sys.window.values)
    osc = sym.values * psi.unit_table()
    want = osc @ element_rows(sys, FiniteSignal(n, 1, gamma)).conj().T / np.sqrt(n)
    for r, op in enumerate(ops.ravel()):
        assert _close(op.entries, want[..., r]), r
