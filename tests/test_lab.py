"""Experiment harness: configs, determinism, reports, sharpness arms."""

import io
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from gaborlab import lab
from gaborlab.cli import run_cli
from gaborlab.fio import build_hard_fio
from gaborlab.lab import (
    SHARPNESS_IDS,
    THEOREM_IDS,
    ConfigError,
    ExperimentConfig,
    gen_ensemble,
    make_window,
    ratio_experiment,
    sharpness_experiment,
    tensor_mixed_norm,
)
from gaborlab.mixednorm import ExponentVector, Permutation, _plan, mixed_modulation_norm
from gaborlab.operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from gaborlab.schatten import schatten_norm
from gaborlab.signals import random_signal


def _slice(image):
    # x, xi_x (axes 1, 3) on levels 1-2 and y, xi_y (2, 4) on 3-4, or swapped.
    return len(image) == 4 and set(image[:2]) in ({1, 3}, {2, 4})


def _fio_slice(image):
    # {x, zeta_x} = {1, 4} and {y, zeta_y} = {2, 5} on levels 1-2 and 3-4 in
    # either order, then xi (3) at level 5 and zeta_xi (6) at level 6.
    return (len(image) == 6 and set(image[:2]) in ({1, 4}, {2, 5})
            and image[4:] == (3, 6))


def _fio_symbol(image):
    # zeta_xi innermost, {1, 4} and {2, 5} on levels 2-3 and 4-5, xi last.
    return (len(image) == 6 and image[0] == 6 and image[5] == 3
            and set(image[1:3]) in ({1, 4}, {2, 5}))


# Which permutations each theorem accepts, read off positions: image[j - 1]
# is the axis contracted at level j.
PERMUTATION_ORACLE = {
    "T2.9": _slice,
    "T3.1": _slice,
    "T3.2": _fio_slice,
    "T4.2a": lambda image: len(image) == 2,
    "T4.3a": _slice,
    "T4.3b": _fio_slice,
    "T4.4a": _slice,
    "T4.4b": _fio_symbol,
    "T4.5a": lambda image: len(image) == 4 and image[0] in (3, 4),
    "T4.5b": lambda image: (len(image) == 6 and image[0] == 6 and image[5] == 3
                            and image[1] in (4, 5)),
}


# Every experiment id, each SHARP id in both arms.
_ARMS = [(t, False) for t in THEOREM_IDS] + [(t, c) for t in SHARPNESS_IDS for c in (False, True)]


class TestConfig:
    def test_unknown_theorem(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T9.9", n_values=(8,))

    def test_bad_p(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T3.1", n_values=(8,), p=3.0)

    def test_odd_n_runs_for_chirped_and_sharp_ids(self):
        # The chirps gen_ensemble draws have an even diagonal, so they are
        # well-defined on every Z_n.  At p = 2 a chirped easy-form ratio is
        # 1 and SHARP-T4.3's is n, so their growth over n = 9, 27 is 1 and 3.
        chirped = ratio_experiment(ExperimentConfig("T4.5a", (9, 27), p=2.0, trials=2))
        sharp = sharpness_experiment(ExperimentConfig("SHARP-T4.3", (9, 27), p=2.0, trials=1))
        assert abs(chirped.growth_factor - 1.0) <= 1e-12
        assert abs(sharp.growth_factor - 3.0) <= 3e-12
        assert ratio_experiment(ExperimentConfig("T4.4b", (5, 9), trials=1)).all_finite()

    def test_permutation_class_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T3.1", n_values=(8,),
                             permutation=Permutation((1, 2, 3, 4)))
        ExperimentConfig(theorem_id="T3.1", n_values=(8,),
                         permutation=Permutation((1, 3, 2, 4)))

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_permutation_families_match_oracle(self, theorem):
        accepted = 0
        for m in (2, 4, 6):
            for image in itertools.permutations(range(1, m + 1)):
                try:
                    ExperimentConfig(theorem, (8,), permutation=Permutation(image))
                    ok = True
                except ConfigError:
                    ok = False
                assert ok == PERMUTATION_ORACLE[theorem](image), image
                accepted += ok
        assert accepted > 0

    @pytest.mark.parametrize("theorem,image", [
        ("T4.5a", (3, 1, 2, 4, 5, 6)),
        ("T4.5a", (1, 2)),
        ("T4.5b", (1, 2, 3, 4)),
        ("T2.9", (1, 2)),
    ], ids=["T4.5a-len6", "T4.5a-len2", "T4.5b-len4", "T2.9-len2"])
    def test_wrong_length_permutation_rejected(self, theorem, image):
        with pytest.raises(ConfigError, match="permutation"):
            ExperimentConfig(theorem, (8,), permutation=image)

    def test_fio_slice_perm_for_t32(self):
        cfg = ExperimentConfig(theorem_id="T3.2", n_values=(8,),
                               permutation=Permutation((2, 5, 1, 4, 3, 6)))
        assert cfg.exponents().exps == (2.0, 2.0, 1.5, 1.5, 1.0, math.inf)

    def test_raise_slot_must_violate(self):
        with pytest.raises(ConfigError, match="nothing to falsify"):
            ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8,),
                             raise_slots={5: 1.0})
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T3.1", n_values=(8,),
                             raise_slots={1: math.inf})

    def test_raise_slots_read_like_a_config_file(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8,),
                               raise_slots={"5": "inf", 1: 3})
        assert cfg.raise_slots == {5: math.inf, 1: 3.0}

    @pytest.mark.parametrize("fields", [
        {"raise_slots": [5]},
        {"raise_slots": {"5": "x"}},
        {"raise_slots": {True: "inf"}},
        {"control_arm": 1},
    ], ids=["list", "exp-text", "slot-true", "control-1"])
    def test_sharpness_fields_rejected(self, fields):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8,), **fields)

    def test_reals_stored_as_floats(self):
        cfg = ExperimentConfig(theorem_id="T3.1", n_values=(8,), p=2,
                               ratio_ceiling=4, growth_floor=2)
        assert all(type(v) is float for v in (cfg.p, cfg.ratio_ceiling, cfg.growth_floor))

    def test_control_arm_only_for_sharp_ids(self):
        with pytest.raises(ConfigError, match="control_arm"):
            ExperimentConfig(theorem_id="T3.1", n_values=(8,), control_arm=True)
        ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8,), control_arm=True)

    def test_default_windows(self):
        assert ExperimentConfig(theorem_id="T3.1",
                                n_values=(8,)).window_kind == "gaussian-sampled"
        assert ExperimentConfig(theorem_id="SHARP-T4.3",
                                n_values=(8,)).window_kind == "delta"


class TestEnsembles:
    def test_seed_determinism(self):
        a = gen_ensemble("gaussian-symbol", 8, 5, rank=2)
        b = gen_ensemble("gaussian-symbol", 8, 5, rank=2)
        assert np.array_equal(a.values, b.values)

    def test_quadratic_phase_well_defined(self):
        for seed in range(20):
            qp = gen_ensemble("quadratic-phase", 8, seed, rank=3)
            qp.check_well_defined(8)
            assert isinstance(qp, QuadraticPhase)

    def test_zero_mixed_block(self):
        qp = gen_ensemble("quadratic-phase", 8, 3, rank=3, zero_mixed=True)
        assert qp.m[0, 1] == 0 and qp.m[1, 0] == 0

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            gen_ensemble("bogus", 8, 0)

    def test_windows_unit_norm(self):
        for kind in ("delta", "gaussian-sampled", "random"):
            assert np.isclose(make_window(kind, 16, 3).norm(), 1.0)


class TestRatioExperiment:
    def test_report_shape_and_recompute(self):
        cfg = ExperimentConfig(theorem_id="T3.1", n_values=(8, 12), trials=4,
                               seed=11)
        rep = ratio_experiment(cfg)
        assert len(rep.records) == 8
        for r in rep.records:
            if r.mixed_norm > 0:
                assert np.isclose(r.ratio, r.schatten / r.mixed_norm)
        assert set(rep.per_n_max) == {8, 12}
        assert rep.growth_factor >= 1.0

    def test_determinism_bit_identical(self):
        cfg = ExperimentConfig(theorem_id="T2.9", n_values=(8,), p=1.0,
                               trials=50, seed=7)
        assert ratio_experiment(cfg).csv_body() == ratio_experiment(cfg).csv_body()

    def test_sharp_id_rejected(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8,))
        with pytest.raises(ConfigError):
            ratio_experiment(cfg)

    def test_quadratic_theorem_metadata(self):
        cfg = ExperimentConfig(theorem_id="T4.3a", n_values=(8,), trials=2)
        rep = ratio_experiment(cfg)
        assert all(r.metadata["det_mixed_block"] == 0.0 for r in rep.records)

    def test_every_theorem_runs_small(self):
        for theorem in THEOREM_IDS:
            cfg = ExperimentConfig(theorem_id=theorem, n_values=(8,), trials=1,
                                   seed=0)
            rep = ratio_experiment(cfg)
            assert rep.all_finite() and rep.records[0].ratio > 0

    @pytest.mark.parametrize("theorem", ["T3.1", "T3.2"])
    def test_product_formed_once_per_trial(self, monkeypatch, theorem):
        # The operator and the norm object share one symbol-phase product.
        calls, unit_table = [], PhaseTable.unit_table
        monkeypatch.setattr(PhaseTable, "unit_table",
                            lambda table: calls.append(table) or unit_table(table))
        ratio_experiment(ExperimentConfig(theorem_id=theorem, n_values=(8,), trials=3))
        assert len(calls) == 3


def _raised_slots():
    """(id, raise_slots, p, 1/p_j - 1/q) for each one-slot raise of a constant
    factor's level from its base exponent p_j to a q > p_j.  An id names q only
    when it is finite, so the default q = inf raise keeps its id-p name."""
    for theorem, slot in (("SHARP-T2.9", 3), ("SHARP-T4.3", 5), ("SHARP-T4.4", 6)):
        for p in (1.0, 1.25, 1.5, 2.0):
            p_j = lab.THEOREMS[lab.SHARPNESS[theorem][0]].exps(p)[slot - 1]
            for q in (1.25, 2.0, 4.0, math.inf):
                if q > p_j:
                    suffix = "" if math.isinf(q) else f"-q{q}"
                    yield pytest.param(theorem, {slot: q}, p, 1 / p_j - 1 / q,
                                       id=f"{theorem}-{p}{suffix}")


class TestExactIdentities:
    """Closed forms that pin the STFT's n^(-d/2) normalisation exactly."""

    @pytest.mark.parametrize("window", ["delta", "gaussian-sampled", "random"])
    @pytest.mark.parametrize("theorem", ["T2.9", "T3.1", "T4.3a", "T4.4a", "T4.5a"])
    def test_ratio_is_one_at_p_two(self, theorem, window):
        # Every exponent is 2, so by Moyal the mixed norm is the l^2 norm of
        # the kernel or symbol (the unit window contributes 1), and the easy
        # form's unitary partial DFT carries that to the S^2 (Frobenius) norm.
        cfg = ExperimentConfig(theorem_id=theorem, n_values=(8, 12), p=2.0, trials=3,
                               seed=4, window_kind=window)
        ratios = [r.ratio for r in ratio_experiment(cfg).records]
        assert len(ratios) == 6
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", ["delta", "gaussian-sampled", "random"])
    @pytest.mark.parametrize("n", [8, 12, 16, 32, 64])
    def test_identity_kernel_ratio(self, n, window):
        # ||I||_{S^p} = n^(1/p); the (2, 2, p, p) norm of the identity's STFT
        # is n^(1/2) for every unit window, so the T2.9 ratio is n^(1/2 - 1/p).
        eye = np.eye(n)
        g = make_window(window, n, 0)
        for p in (1.0, 1.25, 1.5, 2.0):
            mixed = mixed_modulation_norm(eye, g, Permutation((1, 3, 2, 4)),
                                          ExponentVector((2.0, 2.0, p, p)))
            ratio = schatten_norm(OperatorMatrix(eye), p) / mixed
            assert abs(ratio - n ** (0.5 - 1.0 / p)) <= 1e-12, (p, ratio)


    @pytest.mark.parametrize("window", ["delta", "gaussian-sampled", "random"])
    @pytest.mark.parametrize("theorem,raise_slots,p,power", _raised_slots())
    def test_violated_arm_is_n_times_control(self, theorem, raise_slots, p, power, window):
        # The raised level runs over the time shift k of the constant factor 1,
        # and |V_g 1(k, l)| = |g_hat(l)| for every k, so raising it from l^p_j
        # to l^q divides the norm, and so multiplies the ratio, by exactly
        # n^(1/p_j - 1/q).
        def ratios(raise_slots):
            cfg = ExperimentConfig(theorem_id=theorem, n_values=(8, 12, 16), p=p, trials=2,
                                   seed=6, window_kind=window, raise_slots=raise_slots)
            return [(r.n, r.ratio) for r in sharpness_experiment(cfg).records]

        for (n, violated), (_, control) in zip(ratios(raise_slots), ratios({}), strict=True):
            assert abs(violated - n ** power * control) <= 1e-12 * violated, \
                (n, violated, control)

    @pytest.mark.parametrize("window", ["delta", "gaussian-sampled", "random"])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_zero_mixed_ids_repeat_t29(self, p, window):
        # A zero-mixed quadratic phase multiplies the kernel by unimodular
        # diagonals, which leave S_p unchanged, and T4.3a/T4.4a take the
        # norm of the bare symbol that T2.9 draws at the same seed.
        def ratios(theorem):
            cfg = ExperimentConfig(theorem_id=theorem, n_values=(8, 12), p=p, trials=3,
                                   seed=8, window_kind=window)
            return [r.ratio for r in ratio_experiment(cfg).records]

        want = ratios("T2.9")
        for theorem in ("T4.3a", "T4.4a"):
            np.testing.assert_allclose(ratios(theorem), want, rtol=1e-12, atol=0)


class TestRandomEnsembleLaw:
    """The ratio of an i.i.d. CN(0, 1) draw follows m_p^(1/p) n^alpha."""

    @pytest.mark.parametrize("window", ["delta", "gaussian-sampled", "random"])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("theorem", ["T2.9", "T3.1"])
    def test_ratio_follows_the_quarter_circle_law(self, theorem, p, window):
        self._assert_law(ExperimentConfig(theorem_id=theorem, n_values=(8, 16, 32, 64), p=p,
                                          trials=3, seed=11, window_kind=window))

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_hard_form_follows_the_quarter_circle_law(self, p):
        # The hard form's n^(-1/2) sum over xi keeps the kernel i.i.d. CN(0, 1).
        self._assert_law(ExperimentConfig(theorem_id="T3.2", n_values=(8, 12, 16, 24, 32), p=p,
                                          trials=3, seed=11, window_kind="gaussian-sampled"))

    @staticmethod
    def _assert_law(cfg):
        # The singular values of an n x n i.i.d. CN(0, 1) matrix follow the
        # quarter-circle law on [0, 2 sqrt(n)], so ||K||_(S_p) is about
        # m_p^(1/p) n^(1/2 + 1/p), with m_p = int_0^2 s^p sqrt(4 - s^2) / pi ds.
        # Each STFT entry of a rank-r draw is CN(0, n^-r) for a unit window, and
        # each finite l^p_j level sums n such entries, so the mixed norm is about
        # n^(sum 1/p_j - r/2) over the finite p_j.  Mean / law is checked at the
        # two largest n, the slope of log(per-n max) over all of them.
        p, exps = cfg.p, cfg.exponents().exps
        r = len(exps) // 2
        alpha = 0.5 + 1 / p + r / 2 - sum(1 / e for e in exps if e < math.inf)
        m_p = (2 ** (p + 1) * math.gamma((p + 1) / 2) * math.gamma(1.5)
               / (math.pi * math.gamma(p / 2 + 2)))
        by_n = {}
        for r in ratio_experiment(cfg).records:
            by_n.setdefault(r.n, []).append(r.ratio)
        for n in cfg.n_values[-2:]:
            law = m_p ** (1 / p) * n ** alpha
            assert abs(np.mean(by_n[n]) / law - 1) <= 0.05, (n, np.mean(by_n[n]) / law)
        slope = np.polyfit(np.log(list(by_n)), np.log([max(v) for v in by_n.values()]), 1)[0]
        assert abs(slope - alpha) <= 0.05, (slope, alpha)


class TestMemoryGuard:
    """A size whose planned working set exceeds the available memory is
    refused before the first trial."""

    def test_oversized_n_refused_before_any_trial(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(lab, "_available_bytes", lambda: 7 * 2 ** 30)
        monkeypatch.setattr(lab, "_build_trial", lambda *args: pytest.fail("a trial ran"))
        monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: 2)
        out = tmp_path / "rows.csv"
        code = run_cli(["verify", "--theorem", "T4.4b", "--n", "8,512", "--trials", "1",
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and err.startswith("error:")
        # T4.4b's streamed rule holds x's n^4 transform, y's at one time shift in
        # two arrays and n^3 results; each of two workers holds a 2^17-entry block,
        # its absolute values, n^3 level-1 maxima and numpy's iterator buffers.
        need = (16 * (512 ** 4 + 2 * 512 ** 4) + 2 * (24 * 2 ** 17 + 48 * 512 ** 3 + 2 ** 18)
                + 8 * 512 ** 3 + 16 * 512 ** 2)
        assert "n = 512" in err and str(need) in err
        assert not out.exists()

    def test_sharpness_factors_are_planned(self, monkeypatch):
        # SHARP-T4.3's b1 factor keeps one untransformed variable and streams
        # the other: slabs of n^2 entries, 32 shifts to a 2^17-entry block on
        # each of two workers, 24 bytes an entry, and n^2 results.
        monkeypatch.setattr("gaborlab.mixednorm._cpus", lambda: 2)
        need = (16 * 64 ** 2 + 2 * (24 * 2 ** 17 + 48 * 32 * 64 + 2 ** 18) + 8 * 64 ** 2
                + 16 * 64 ** 2)
        monkeypatch.setattr(lab, "_available_bytes", lambda: need)
        cfg = ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(64, 128), trials=1)
        with pytest.raises(ConfigError, match="n = 128"):
            sharpness_experiment(cfg)

    def test_t32_at_n64_fits_two_gib(self, monkeypatch):
        # T3.2's streamed plan holds n^4 entries at a time, about 0.9 GiB at n = 64.
        monkeypatch.setattr(lab, "_available_bytes", lambda: 2 * 2 ** 30)

        def sentinel(*args):
            raise RuntimeError("reached the first trial")

        monkeypatch.setattr(lab, "_build_trial", sentinel)
        with pytest.raises(RuntimeError, match="reached the first trial"):
            run_cli(["verify", "--theorem", "T3.2", "--n", "64", "--trials", "1"])

    @pytest.mark.parametrize("theorem,control", _ARMS,
                             ids=[t + "-control" * c for t, c in _ARMS])
    def test_guard_plans_the_norms_a_trial_takes(self, monkeypatch, theorem, control):
        # The (permutation, exponents) pairs the guard plans are those of
        # the mixed_modulation_norm calls the trial makes, factors included.
        planned, taken = set(), set()
        plan, norm = lab.planned_bytes, lab.mixed_modulation_norm
        monkeypatch.setattr(lab, "planned_bytes",
                            lambda n, c, e: planned.add((c, e)) or plan(n, c, e))
        monkeypatch.setattr(lab, "mixed_modulation_norm",
                            lambda obj, w, c, e: taken.add((c, e)) or norm(obj, w, c, e))
        cfg = ExperimentConfig(theorem, (8,), trials=1, control_arm=control)
        (sharpness_experiment if theorem in SHARPNESS_IDS else ratio_experiment)(cfg)
        assert taken and planned == taken

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("theorem,control", _ARMS,
                             ids=[t + "-control" * c for t, c in _ARMS])
    def test_every_planned_norm_fits_its_plan(self, theorem, control, p):
        # Each factor norm the guard plans, on a random object of its rank at
        # n = 8, peaks at no more than planned_bytes.  Only this side is checked:
        # at n = 8 the plan's constants outweigh the arrays.
        n = 8
        cfg = ExperimentConfig(theorem, (n,), p=p, trials=1, control_arm=control)
        window = make_window(cfg.window_kind, n, cfg.seed)
        for c, e in lab._factor_norms(cfg):
            obj = random_signal(n, len(c) // 2, np.random.default_rng(n))
            tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                mixed_modulation_norm(obj, window, c, e)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert peak <= lab.planned_bytes(n, c, e), (c, e, peak)

    def test_unreadable_meminfo_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(lab, "_available_bytes", lambda: None)
        cfg = ExperimentConfig(theorem_id="T2.9", n_values=(8,), trials=1)
        assert ratio_experiment(cfg).all_finite()

    @pytest.mark.parametrize("limit,want", [("max\n", 8 * 2 ** 30), ("3221225472\n", 3 * 2 ** 30),
                                            ("17179869184\n", 8 * 2 ** 30), (None, 8 * 2 ** 30)])
    def test_cgroup_limit_caps_meminfo(self, monkeypatch, limit, want):
        files = {"/proc/meminfo": f"MemTotal: 1 kB\nMemAvailable: {8 * 2 ** 20} kB\n",
                 "/sys/fs/cgroup/memory.max": limit}

        def fake_open(path):
            if files[path] is None:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(lab, "open", fake_open, raising=False)
        assert lab._available_bytes() == want

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="no /proc/meminfo")
    def test_reads_meminfo(self):
        assert lab._available_bytes() > 0

    def test_large_sharpness_run_completes(self, capsys):
        # The b1 factor at n = 256 takes 2^24 entries, where its full STFT
        # would take 2^32.
        assert run_cli(["sharpness", "--theorem", "SHARP-T4.3", "--n", "64,128,256",
                        "--trials", "2"]) == 0
        assert capsys.readouterr().out.count("SHARP-T4.3,") == 6


class TestSharpnessExperiment:
    def test_closed_form_growth(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8, 16),
                               p=2.0, trials=1, seed=1)
        rep = sharpness_experiment(cfg)
        assert rep.per_n_max[8] == pytest.approx(8.0, rel=1e-10)
        assert rep.per_n_max[16] == pytest.approx(16.0, rel=1e-10)

    @pytest.mark.parametrize("control", [False, True], ids=["violated", "control"])
    @pytest.mark.parametrize("theorem", ["SHARP-T4.3", "SHARP-T4.4"])
    def test_closed_form_growth_through_the_streamed_plan(self, theorem, control):
        # At p = 2 the b1 factor's all-2 norm collapses one variable by Moyal and
        # transforms the other at n = 8 and 32; the growth over the two is 32 / 8
        # when violated, 1 else.
        cfg = ExperimentConfig(theorem_id=theorem, n_values=(8, 32), p=2.0, trials=1,
                               seed=1, control_arm=control)
        c, e = lab._factor_norms(cfg)[0]
        assert len(c) == 4
        for n in cfg.n_values:
            full, u, v = _plan(n, c, e)[:3]
            assert not full and len(u) == 1 and len(v) == 1
        want = 1.0 if control else 4.0
        assert abs(sharpness_experiment(cfg).growth_factor - want) <= 1e-10 * want

    def test_control_arm_flat(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T4.4", n_values=(8, 16),
                               p=2.0, trials=1, seed=1, control_arm=True)
        rep = sharpness_experiment(cfg)
        assert rep.growth_factor <= 1.0 + 1e-10

    def test_monotone_across_n(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T2.9", n_values=(8, 16, 32),
                               p=2.0, trials=1, seed=0)
        rep = sharpness_experiment(cfg)
        vals = [rep.per_n_max[n] for n in (8, 16, 32)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_single_n_trivially_nondecreasing(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8,), p=2.0,
                               trials=1, seed=0)
        assert sharpness_experiment(cfg).growth_factor == 1.0

    def test_plain_id_rejected(self):
        cfg = ExperimentConfig(theorem_id="T3.2", n_values=(8,))
        with pytest.raises(ConfigError):
            sharpness_experiment(cfg)

    def test_all_sharpness_ids(self):
        for theorem in SHARPNESS_IDS:
            cfg = ExperimentConfig(theorem_id=theorem, n_values=(8,), p=2.0,
                                   trials=1, seed=0)
            assert sharpness_experiment(cfg).all_finite()

    @pytest.mark.parametrize("n", [6, 8])
    def test_hard_form_of_b1_times_one_is_sqrt_n_b1(self, n):
        # SHARP-T4.3/T4.4 build their operator as sqrt(n) * b1 instead of
        # the hard form of the materialised symbol b1 (x) 1 with zero phase.
        b1 = gen_ensemble("gaussian-symbol", n, 2, rank=2).values
        full = SymbolTable(n, 3, b1[:, :, None] * np.ones(n)[None, None, :])
        got = build_hard_fio(full, PhaseTable(n, 3, np.zeros((n, n, n)))).entries
        want = np.sqrt(n) * b1
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSharpnessClosedForms:
    """With the delta window every trial's ratio is an exact power of n.
    SHARP-T2.9's all-ones kernel has S^p norm n and an STFT of modulus 1/n.
    At p = 2, SHARP-T4.3/T4.4 divide ||sqrt(n) b1||_S2 = sqrt(n) ||b1||_2 by
    ||b1||_2 (Moyal) times the norm of the constant xi factor: n^(-1/2) when
    violated, n^(1/2) in the control arm.  At p = 1.5 their ratios depend on
    the draw, so they get no case here."""

    @staticmethod
    def _ratios(theorem, n_values, p, control):
        cfg = ExperimentConfig(theorem_id=theorem, n_values=n_values, p=p, trials=2,
                               seed=11, control_arm=control)
        return [(r.n, r.ratio) for r in sharpness_experiment(cfg).records]

    @pytest.mark.parametrize("control", [False, True], ids=["violated", "control"])
    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
    def test_sharp_t29(self, p, control):
        # Violated: n / n^(-1/2) at every p.  Control: n / n^(2/p).
        power = 1.0 - 2.0 / p if control else 1.5
        for n, ratio in self._ratios("SHARP-T2.9", (8, 12, 16, 32, 64), p, control):
            assert abs(ratio - n ** power) <= 1e-12 * n ** power, (n, ratio)

    @pytest.mark.parametrize("control", [False, True], ids=["violated", "control"])
    @pytest.mark.parametrize("theorem", ["SHARP-T4.3", "SHARP-T4.4"])
    def test_hard_families_at_p_two(self, theorem, control):
        power = 0.0 if control else 1.0
        for n, ratio in self._ratios(theorem, (8, 12, 16, 32), 2.0, control):
            assert abs(ratio - n ** power) <= 1e-12 * n ** power, (n, ratio)


class TestTensorMixedNorm:
    """The factored norm against the full norm of the materialised product."""

    @staticmethod
    def _arms(theorem, n, p):
        return [ExperimentConfig(theorem_id=theorem, n_values=(n,), p=p,
                                 control_arm=control)
                for control in (False, True)]

    @pytest.mark.parametrize("theorem", ["SHARP-T4.3", "SHARP-T4.4"])
    def test_b1_times_one(self, theorem):
        n = 6
        b1 = gen_ensemble("gaussian-symbol", n, 3, rank=2).values
        b2 = np.ones(n, dtype=np.complex128)
        full = b1[:, :, None] * b2[None, None, :]
        window = make_window("gaussian-sampled", n)
        for cfg in self._arms(theorem, n, 1.5):
            exps = cfg.exponents()
            got = tensor_mixed_norm([b1, b2], window, lab._factor_norms(cfg))
            want = mixed_modulation_norm(full, window, cfg.permutation, exps)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_one_times_one(self):
        n = 8
        ones = np.ones(n, dtype=np.complex128)
        window = make_window("gaussian-sampled", n)
        perm = Permutation((1, 3, 2, 4))
        for cfg in self._arms("SHARP-T2.9", n, 1.5):
            exps = cfg.exponents()
            got = tensor_mixed_norm([ones, ones], window, lab._factor_norms(cfg))
            want = mixed_modulation_norm(np.outer(ones, ones), window, perm, exps)
            assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestMultiplicationExperiment:
    """T4.2a: the pointwise-product bound, run through ratio_experiment."""

    def test_runs_and_bounded(self):
        cfg = ExperimentConfig(theorem_id="T4.2a", n_values=(8, 16), p=1.5,
                               trials=5, seed=3)
        rep = ratio_experiment(cfg)
        assert len(rep.records) == 10
        assert rep.all_finite()
        assert rep.theorem == "MULT"

    def test_determinism(self):
        cfg = ExperimentConfig(theorem_id="T4.2a", n_values=(8,), p=1.0,
                               trials=4, seed=5, permutation=Permutation((2, 1)))
        assert ratio_experiment(cfg).csv_body() == ratio_experiment(cfg).csv_body()


class TestReport:
    def test_csv_header_and_rows(self):
        cfg = ExperimentConfig(theorem_id="T3.1", n_values=(8,), trials=3,
                               seed=2)
        body = ratio_experiment(cfg).csv_body()
        lines = body.strip().split("\n")
        assert lines[0] == "theorem,n,trial,p,schatten,mixednorm,ratio,seed"
        assert len(lines) == 4

    def test_summary_keys(self):
        cfg = ExperimentConfig(theorem_id="T3.1", n_values=(8,), trials=1)
        s = ratio_experiment(cfg).summary()
        for key in ("theorem", "per_n_max_ratio", "growth_factor", "n_values",
                    "permutation", "exponents", "seed"):
            assert key in s
