"""Acceptance gate: one test per acceptance criterion.

Each test prints a single CRITERION line (visible with `pytest -s` or on
failure) and asserts the stated tolerance.
"""

import itertools
import math
import time

import numpy as np

from gaborlab.cli import run_cli
from gaborlab.fio import (
    apply_chirp,
    build_hard_fio,
    fio_operator,
    fio_slice_family,
    oscillatory,
    quadratic_phase_table,
)
from gaborlab.frames import (
    GaborSystem,
    analyze,
    canonical_tight_window,
    dual_window,
    frame_bounds,
    synthesize,
)
from gaborlab.lab import ExperimentConfig, ratio_experiment, sharpness_experiment
from gaborlab.mixednorm import (
    ExponentVector,
    Permutation,
    classify_permutation,
    mixed_modulation_norm,
    mixed_norm,
)
from gaborlab.operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from gaborlab.schatten import pair_functional, schatten_norm
from gaborlab.signals import delta, dft, periodized_gaussian, random_signal, stft

from test_fio import dft_matrix, easy_fio_oracle, hard_fio_oracle
from test_mixednorm import classify_oracle, nested_norm_oracle


def _report(num, name, ok):
    print(f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_moyal_parseval():
    start = time.time()
    rng = np.random.default_rng(10)
    ok = True
    cases = 0
    while cases < 100:
        n = [8, 16, 64][cases % 3]
        f = random_signal(n, 1, rng)
        g = random_signal(n, 1, rng)
        total = float(np.sum(np.abs(stft(f, g)) ** 2))
        target = f.norm() ** 2 * g.norm() ** 2
        ok = ok and abs(total - target) <= 1e-12 * target
        ok = ok and abs(dft(f).norm() - f.norm()) <= 1e-12 * f.norm()
        cases += 1
    elapsed = time.time() - start
    _report(1, "Moyal/Parseval suite", ok and elapsed < 5.0)


def test_criterion_02_frame_suite():
    ok = True
    for n in (8, 16):
        a, b = frame_bounds(GaborSystem(delta(n), 1, 1))
        ok = ok and abs(a - n) <= 1e-10 and abs(b - n) <= 1e-10
    rng = np.random.default_rng(20)
    n = 16
    for _ in range(20):
        g = random_signal(n, 1, rng)
        sys = GaborSystem(g, 2, 2)
        f = random_signal(n, 1, rng)
        rec = synthesize(sys.with_window(dual_window(sys)), analyze(sys, f))
        ok = ok and np.max(np.abs(rec.values - f.values)) <= 1e-10
        tight = canonical_tight_window(sys)
        ta, tb = frame_bounds(GaborSystem(tight, 2, 2))
        ok = ok and abs(ta - 1) <= 1e-10 and abs(tb - 1) <= 1e-10
    _report(2, "frame suite", ok)


def test_criterion_03_mixed_norm_oracle():
    rng = np.random.default_rng(30)
    ok = True
    pool = [1.0, 1.5, 2.0, 3.0, math.inf]
    for rank, n, count in ((4, 4, 100), (6, 3, 100)):
        images = [tuple(int(v) for v in rng.permutation(rank) + 1)
                  for _ in range(10)]
        for case in range(count):
            arr = (rng.standard_normal((n,) * rank)
                   + 1j * rng.standard_normal((n,) * rank))
            image = images[case % 10]
            exps = tuple(rng.choice(pool, size=rank))
            got = mixed_norm(arr, Permutation(image), ExponentVector(exps))
            want = nested_norm_oracle(arr, list(image), list(exps))
            ok = ok and abs(got - want) <= 1e-12 * max(want, 1.0)
    for m in (4, 6):
        for image in itertools.permutations(range(1, m + 1)):
            got = classify_permutation(Permutation(image), 1)
            ok = ok and got == classify_oracle(image, 1)
    count_first = sum(
        "first-slice" in classify_permutation(Permutation(img), 1)
        for img in itertools.permutations(range(1, 5)))
    ok = ok and count_first == 4
    _report(3, "mixed-norm and classifier oracles", ok)


def test_criterion_04_fio_consistency():
    ok = True
    rng = np.random.default_rng(40)
    for n in (8, 16):
        a = SymbolTable(n, 2, rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
        phi = PhaseTable(n, 2, rng.random((n, n)))
        built = fio_operator(oscillatory(a, phi)).entries
        ok = ok and np.max(np.abs(
            built - oscillatory(a, phi) @ dft_matrix(n))) <= 1e-12
        ok = ok and np.max(np.abs(built - easy_fio_oracle(a, phi))) <= 1e-12 * n

        b = SymbolTable(n, 3, rng.standard_normal((n, n, n))
                        + 1j * rng.standard_normal((n, n, n)))
        psi = PhaseTable(n, 3, rng.random((n, n, n)))
        ok = ok and np.max(np.abs(
            build_hard_fio(b, psi).entries - hard_fio_oracle(b, psi))) <= 1e-12 * n

        # reduction: b(x,y,xi) = a(x,xi), psi = phi(x,xi) - y xi / n
        y, xi = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        b2 = SymbolTable(n, 3, np.broadcast_to(a.values[:, None, :], (n, n, n)))
        psi2 = PhaseTable(n, 3, phi.values[:, None, :] - (y * xi / n)[None, :, :])
        ok = ok and np.max(np.abs(
            build_hard_fio(b2, psi2).entries - built)) <= 1e-12 * n
    _report(4, "FIO consistency", ok)


def test_criterion_05_chirp_covariance():
    ok = True
    for n in (8, 16):
        rng = np.random.default_rng(50 + n)
        f = random_signal(n, 1, rng)
        g = random_signal(n, 1, rng)
        for m_val in range(2 * n):  # chirps depend on M mod 2n; n even: all valid
            m = np.array([[m_val]])
            lhs = np.abs(stft(apply_chirp(f, m), g))
            base = np.abs(stft(f, apply_chirp(g, -m)))
            rhs = np.empty_like(base)
            for k in range(n):
                rhs[k] = np.roll(base[k], (m_val * k) % n)
            ok = ok and np.max(np.abs(lhs - rhs)) <= 1e-12
    _report(5, "chirp covariance", ok)


def test_criterion_06_slicing_decomposition():
    n = 8
    base = GaborSystem(periodized_gaussian(n), 2, 2)
    sys = GaborSystem(canonical_tight_window(base), 2, 2)
    rng = np.random.default_rng(60)
    ok = True
    for _ in range(10):
        b = SymbolTable(n, 3, rng.standard_normal((n, n, n))
                        + 1j * rng.standard_normal((n, n, n)))
        psi = PhaseTable(n, 3, rng.random((n, n, n)))
        weights, ops = fio_slice_family(b, psi, sys)
        acc = np.zeros((n, n), dtype=np.complex128)
        for i in range(weights.shape[0]):
            for j in range(weights.shape[1]):
                acc += np.conj(weights[i, j]) * ops[i, j].entries
        ok = ok and np.max(np.abs(acc - build_hard_fio(b, psi).entries)) <= 1e-10
    _report(6, "slicing decomposition", ok)


def test_criterion_07_schatten_suite():
    rng = np.random.default_rng(70)
    ok = True

    def rand_matrix(n):
        return OperatorMatrix(rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n)))

    def rand_unitary(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    a = rand_matrix(8)
    frob = np.linalg.norm(a.entries.ravel())
    ok = ok and abs(schatten_norm(a, 2.0) - frob) <= 1e-12 * frob

    norm1 = schatten_norm(a, 1.5)
    for _ in range(100):
        u, v = rand_unitary(8), rand_unitary(8)
        ok = ok and pair_functional(a, u.T, v.T, 1.5) <= norm1 + 1e-10

    for _ in range(50):
        m = rand_matrix(8)
        s1, s2 = schatten_norm(m, 1.0), schatten_norm(m, 2.0)
        for p in (1.25, 1.5, 1.75):
            rhs = s1 ** (2.0 / p - 1.0) * s2 ** (2.0 - 2.0 / p)
            ok = ok and rhs - schatten_norm(m, p) >= -1e-10 * rhs
    _report(7, "Schatten suite", ok)


def test_criterion_08_theorem_ratio_trends():
    start = time.time()
    ok = True
    for theorem in ("T2.9", "T3.1", "T3.2", "T4.4a", "T4.4b"):
        cfg = ExperimentConfig(theorem_id=theorem, n_values=(8, 12, 16),
                               p=1.5, trials=50, seed=42)
        rep = ratio_experiment(cfg)
        ok = ok and rep.all_finite() and rep.growth_factor <= 4.0
    elapsed = time.time() - start
    _report(8, "theorem ratio trends", ok and elapsed < 600.0)


def test_criterion_09_sharpness():
    ok = True
    violated = sharpness_experiment(ExperimentConfig(
        theorem_id="SHARP-T4.3", n_values=(8, 16, 32), p=2.0, trials=2, seed=9))
    ok = ok and violated.growth_factor >= 3.5
    control = sharpness_experiment(ExperimentConfig(
        theorem_id="SHARP-T4.3", n_values=(8, 16, 32), p=2.0, trials=2, seed=9,
        control_arm=True))
    ok = ok and control.growth_factor <= 1.5

    # modulation absorption: affine phases leave the norm unchanged
    n = 8
    rng = np.random.default_rng(90)
    b = SymbolTable(n, 3, rng.standard_normal((n, n, n))
                    + 1j * rng.standard_normal((n, n, n)))
    w = periodized_gaussian(n)
    c = Permutation((2, 5, 1, 4, 3, 6))
    exps = ExponentVector((2, 2, 1.5, 1.5, 1, math.inf))
    ref = mixed_modulation_norm(b.values, w, c, exps)
    for q in ([2, -1, 3], [0, 5, -4]):
        aff = QuadraticPhase(0.7, np.array(q), np.zeros((3, 3), dtype=int))
        mod = oscillatory(b, quadratic_phase_table(aff, n))
        ok = ok and abs(mixed_modulation_norm(mod, w, c, exps) - ref) <= 1e-10 * ref
    _report(9, "sharpness and modulation absorption", ok)


def test_criterion_10_csv_determinism(tmp_path):
    args = ["verify", "--theorem", "T3.2", "--n", "8", "--p", "1.5",
            "--trials", "5", "--seed", "42", "--perm", "2,5,1,4,3,6"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    ok = run_cli(args + ["--out", out1]) == 0
    ok = ok and run_cli(args + ["--out", out2]) == 0
    body1, body2 = open(out1).read(), open(out2).read()
    ok = ok and body1 == body2 and len(body1.strip().split("\n")) == 6
    _report(10, "CSV determinism", ok)
