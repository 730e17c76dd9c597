"""Experiment harness: configs, determinism, reports, sharpness arms."""

import itertools
import math

import numpy as np
import pytest

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
from gaborlab.mixednorm import ExponentVector, Permutation, mixed_modulation_norm
from gaborlab.operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from gaborlab.schatten import schatten_norm


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


class TestConfig:
    def test_unknown_theorem(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T9.9", n_values=(8,))

    def test_bad_p(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T3.1", n_values=(8,), p=3.0)

    def test_odd_n_rejected_for_chirped_ensembles(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(theorem_id="T4.3a", n_values=(9,))
        ExperimentConfig(theorem_id="T3.1", n_values=(9,))  # no chirps: fine

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
            ratio = schatten_norm(OperatorMatrix(n, eye), p) / mixed
            assert abs(ratio - n ** (0.5 - 1.0 / p)) <= 1e-12, (p, ratio)


class TestSharpnessExperiment:
    def test_closed_form_growth(self):
        cfg = ExperimentConfig(theorem_id="SHARP-T4.3", n_values=(8, 16),
                               p=2.0, trials=1, seed=1)
        rep = sharpness_experiment(cfg)
        assert rep.per_n_max[8] == pytest.approx(8.0, rel=1e-10)
        assert rep.per_n_max[16] == pytest.approx(16.0, rel=1e-10)

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
            got = tensor_mixed_norm([(b1, (1, 2)), (b2, (3,))], window,
                                    cfg.permutation, exps)
            want = mixed_modulation_norm(full, window, cfg.permutation, exps)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_one_times_one(self):
        n = 8
        ones = np.ones(n, dtype=np.complex128)
        window = make_window("gaussian-sampled", n)
        perm = Permutation((1, 3, 2, 4))
        for cfg in self._arms("SHARP-T2.9", n, 1.5):
            exps = cfg.exponents()
            got = tensor_mixed_norm([(ones, (1,)), (ones, (2,))], window, perm, exps)
            want = mixed_modulation_norm(np.outer(ones, ones), window, perm, exps)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_axes_must_partition(self):
        ones = np.ones(4, dtype=np.complex128)
        with pytest.raises(ValueError, match="partition"):
            tensor_mixed_norm([(ones, (1,)), (ones, (1,))], make_window("delta", 4),
                              Permutation((1, 3, 2, 4)), ExponentVector((2.0,) * 4))


class TestMultiplicationExperiment:
    """T4.2a: the pointwise-product bound, run through ratio_experiment."""

    def test_runs_and_bounded(self):
        cfg = ExperimentConfig(theorem_id="T4.2a", n_values=(8, 16), p=1.5,
                               trials=5, seed=3)
        rep = ratio_experiment(cfg)
        assert len(rep.records) == 10
        assert rep.all_finite()
        assert {r.theorem for r in rep.records} == {"MULT"}

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
