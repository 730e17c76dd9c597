"""Experiment harness: per-theorem ratio experiments, sharpness blow-up
experiments and CSV/JSON reporting.

Each registered theorem id fixes an operator form (plain kernel, easy or
hard oscillatory form), the object whose mixed modulation norm is taken
(kernel, symbol-times-phase product, or bare symbol), a permutation-class
requirement and an exponent pattern.  A trial draws a seeded ensemble,
builds the operator, and records

    ratio = schatten_norm(A, p) / mixed_modulation_norm(object).

T4.2a, the pointwise-product bound, records instead the ratio of the
product's mixed norm to the bound on it; its rows are labelled MULT.

Reports carry the per-n max ratio and the cross-n growth factor
max_n(max ratio) / min_n(max ratio); empirical ceilings/floors on that
factor are configuration knobs, not fixed constants.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .fio import build_easy_fio, build_hard_fio, oscillatory, quadratic_phase_table
from .mixednorm import (
    CLASSES,
    ExponentVector,
    Permutation,
    mixed_modulation_norm,
    satisfies_blocks,
)
from .operators import OperatorMatrix, PhaseTable, QuadraticPhase, SymbolTable
from .schatten import schatten_norm
from .signals import FiniteSignal, delta, periodized_gaussian, random_signal

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialRecord",
    "Report",
    "THEOREM_IDS",
    "SHARPNESS_IDS",
    "make_window",
    "gen_ensemble",
    "ratio_experiment",
    "sharpness_experiment",
]

INF = math.inf

CSV_HEADER = "theorem,n,trial,p,schatten,mixednorm,ratio,seed"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# Theorem registry
# ---------------------------------------------------------------------------


def _either(first, second):
    return CLASSES[first][0], [CLASSES[first][1], CLASSES[second][1]]


# Permutation families a theorem can require, as (rank, alternatives) in
# the d = 1 notation of mixednorm.CLASSES: a permutation of length
# rank * d is in the family when every condition of some alternative holds.
FAMILIES = {
    "slice": _either("first-slice", "second-slice"),
    "FIO slice": _either("first-FIO-slice", "second-FIO-slice"),
    "FIO symbol": _either("first-FIO-symbol", "second-FIO-symbol"),
    "two-axis": (2, [[]]),
    # Axis 4 or axis 3 contracted innermost.
    "relaxed easy": (4, [[((4,), (1,))], [((3,), (1,))]]),
    # Axis 6 innermost, axis 3 outermost, and axis 5 or axis 4 at level 2.
    "relaxed hard": (6, [[((6,), (1,)), ((3,), (6,)), ((5,), (2,))],
                         [((6,), (1,)), ((3,), (6,)), ((4,), (2,))]]),
}


@dataclass(frozen=True)
class TheoremSpec:
    form: str              # "kernel" | "easy" | "hard"
    norm_object: str       # "kernel" | "product" | "bare"
    phase: str             # "none" | "random" | "quadratic-zero-mixed" | "quadratic"
    family: str            # key of FAMILIES
    exps: callable         # p -> tuple
    default_perm: tuple


# T4.3a and T4.4a state the same easy-form bound.
_EASY_ZERO_MIXED = TheoremSpec(
    "easy", "bare", "quadratic-zero-mixed", "slice",
    lambda p: (2.0, 2.0, p, p), (1, 3, 2, 4))

THEOREMS = {
    "T2.9": TheoremSpec(
        "kernel", "kernel", "none", "slice",
        lambda p: (2.0, 2.0, p, p), (1, 3, 2, 4)),
    "T3.1": TheoremSpec(
        "easy", "product", "random", "slice",
        lambda p: (2.0, 2.0, p, p), (1, 3, 2, 4)),
    "T3.2": TheoremSpec(
        "hard", "product", "random", "FIO slice",
        lambda p: (2.0, 2.0, p, p, 1.0, INF), (2, 5, 1, 4, 3, 6)),
    "T4.2a": TheoremSpec(  # pointwise-product bound; trial body in ratio_experiment
        "kernel", "kernel", "none", "two-axis", lambda p: (2.0, p), (1, 2)),
    "T4.3a": _EASY_ZERO_MIXED,
    "T4.3b": TheoremSpec(
        "hard", "bare", "quadratic-zero-mixed", "FIO slice",
        lambda p: (2.0, 2.0, p, p, 1.0, INF), (2, 5, 1, 4, 3, 6)),
    "T4.4a": _EASY_ZERO_MIXED,
    "T4.4b": TheoremSpec(
        "hard", "bare", "quadratic-zero-mixed", "FIO symbol",
        lambda p: (INF, 2.0, 2.0, p, p, 1.0), (6, 1, 4, 2, 5, 3)),
    "T4.5a": TheoremSpec(
        "easy", "bare", "quadratic", "relaxed easy",
        lambda p: (2.0, p, p, p), (4, 1, 2, 3)),
    "T4.5b": TheoremSpec(
        "hard", "bare", "quadratic", "relaxed hard",
        lambda p: (INF, 2.0, p, p, p, 1.0), (6, 5, 1, 2, 4, 3)),
}

# Sharpness families: base theorem plus default raised exponent slots.
SHARPNESS = {
    "SHARP-T2.9": ("T2.9", {1: INF, 3: INF, 4: INF}),
    "SHARP-T4.3": ("T4.3b", {5: INF}),
    "SHARP-T4.4": ("T4.4b", {6: INF}),
}

THEOREM_IDS = tuple(THEOREMS)
SHARPNESS_IDS = tuple(SHARPNESS)

WINDOW_KINDS = ("delta", "gaussian-sampled", "random")


# ---------------------------------------------------------------------------
# Configuration and report containers
# ---------------------------------------------------------------------------


def _integer(name: str, value) -> int:
    """operator.index(value); bools and non-integers raise ConfigError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    theorem_id: str
    n_values: tuple
    p: float = 1.5
    trials: int = 10
    seed: int = 0
    permutation: Permutation = None
    window_kind: str = None
    output_path: str = None
    ratio_ceiling: float = 4.0
    growth_floor: float = 2.0
    raise_slots: dict = None
    control_arm: bool = False

    def __post_init__(self):
        if self.theorem_id not in THEOREMS and self.theorem_id not in SHARPNESS:
            raise ConfigError(f"unknown theorem id {self.theorem_id!r}")
        if not isinstance(self.n_values, (list, tuple)):
            raise ConfigError(f"n_values must be a list of sizes, got {self.n_values!r}")
        n_values = tuple(_integer("n_values entry", n) for n in self.n_values)
        if not n_values or any(n < 2 for n in n_values):
            raise ConfigError("n_values must be a nonempty list of sizes >= 2")
        if len(set(n_values)) != len(n_values):
            raise ConfigError(f"n_values repeats a size: {list(n_values)}")
        object.__setattr__(self, "n_values", n_values)
        for name in ("p", "ratio_ceiling", "growth_floor"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not (1.0 <= self.p <= 2.0):
            raise ConfigError(f"p must lie in [1, 2], got {self.p}")
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigError("seed must be a 64-bit non-negative integer")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigError(f"output_path must be a path string, got {self.output_path!r}")

        spec = THEOREMS[self.base_theorem]
        if spec.phase.startswith("quadratic") and any(n % 2 for n in n_values):
            raise ConfigError("chirped ensembles require even group sizes")

        perm = spec.default_perm if self.permutation is None else self.permutation
        if not isinstance(perm, (Permutation, list, tuple)):
            raise ConfigError(f"permutation must be a list of integers, got {perm!r}")
        perm = perm if isinstance(perm, Permutation) else Permutation(tuple(perm))
        rank, alternatives = FAMILIES[spec.family]
        if len(perm) != rank or not any(satisfies_blocks(perm, alt)
                                        for alt in alternatives):
            raise ConfigError(
                f"permutation {perm.image} is not a {spec.family} permutation, "
                f"as required by {self.base_theorem}"
            )
        object.__setattr__(self, "permutation", perm)

        kind = self.window_kind
        if kind is None:
            kind = "delta" if self.theorem_id in SHARPNESS else "gaussian-sampled"
        if kind not in WINDOW_KINDS:
            raise ConfigError(f"unknown window kind {kind!r}")
        object.__setattr__(self, "window_kind", kind)

        if not isinstance(self.control_arm, bool):
            raise ConfigError(f"control_arm must be a bool, got {self.control_arm!r}")
        if self.theorem_id in SHARPNESS:
            slots = self.raise_slots
            if slots is None:
                slots = SHARPNESS[self.theorem_id][1]
            elif not isinstance(slots, dict):
                raise ConfigError(f"raise_slots must be a mapping, got {slots!r}")
            elif self.control_arm:
                raise ConfigError("raise_slots and control_arm exclude each other")
            base, checked = spec.exps(self.p), {}
            for slot, q in slots.items():
                # JSON keys are text, and "inf" is an exponent only as text.
                slot = _integer("raise_slots slot", int(slot) if str(slot).isdecimal() else slot)
                try:
                    (q,) = ExponentVector.parse(q) if isinstance(q, str) else ExponentVector((q,))
                except ValueError:
                    raise ConfigError(f"raise_slots exponent {q!r} is not a real number "
                                      ">= 1 or 'inf'") from None
                if not 1 <= slot <= len(base):
                    raise ConfigError(f"exponent slot {slot} out of range")
                if not q > base[slot - 1]:
                    raise ConfigError(
                        f"slot {slot}: exponent {q} does not exceed the "
                        f"threshold {base[slot - 1]}; nothing to falsify"
                    )
                checked[slot] = q
            object.__setattr__(self, "raise_slots", checked)
        elif self.raise_slots is not None or self.control_arm:
            raise ConfigError(
                "raise_slots and control_arm only apply to SHARP-* experiments")

    @property
    def base_theorem(self) -> str:
        return SHARPNESS[self.theorem_id][0] if self.theorem_id in SHARPNESS \
            else self.theorem_id

    def exponents(self) -> ExponentVector:
        base = list(THEOREMS[self.base_theorem].exps(self.p))
        if self.theorem_id in SHARPNESS and not self.control_arm:
            for slot, q in self.raise_slots.items():
                base[slot - 1] = q
        return ExponentVector(tuple(base))


@dataclass(frozen=True)
class TrialRecord:
    theorem: str
    n: int
    trial: int
    p: float
    schatten: float
    mixed_norm: float
    ratio: float
    seed: int
    metadata: dict = field(default_factory=dict)


@dataclass
class Report:
    """Per-trial records of one experiment, written as CSV plus a summary.
    In `MULT` rows (T4.2a) no Schatten norm is taken: `schatten` holds
    ||fg||_(2,p) and `mixednorm` holds the bound ||f||_(2,p) ||g||_(inf,1)."""

    theorem: str
    records: list
    per_n_max: dict
    growth_factor: float
    summary_extra: dict = field(default_factory=dict)

    def csv_body(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.theorem},{r.n},{r.trial},{r.p!r},{r.schatten!r},"
                f"{r.mixed_norm!r},{r.ratio!r},{r.seed}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_body())

    def summary(self) -> dict:
        out = {
            "theorem": self.theorem,
            "per_n_max_ratio": {str(n): v for n, v in self.per_n_max.items()},
            "growth_factor": self.growth_factor,
            "rows": len(self.records),
        }
        out.update(self.summary_extra)
        return out

    def all_finite(self) -> bool:
        return all(math.isfinite(v) for r in self.records
                   for v in (r.schatten, r.mixed_norm, r.ratio))


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


def make_window(kind: str, n: int, seed: int = 0) -> FiniteSignal:
    """Unit-norm analysis window of the configured kind."""
    if kind == "delta":
        return delta(n)
    if kind == "gaussian-sampled":
        return periodized_gaussian(n)
    if kind == "random":
        rng = np.random.default_rng([seed, 7919])
        w = random_signal(n, 1, rng)
        return w.scaled(1.0 / w.norm())
    raise ConfigError(f"unknown window kind {kind!r}")


def gen_ensemble(kind: str, n: int, seed, rank: int = 3, zero_mixed: bool = False):
    """Seeded random draws: symbols or phases of the requested kind.

    kinds: "gaussian-symbol" (i.i.d. complex Gaussian SymbolTable),
    "quadratic-phase" (integer QuadraticPhase, mixed x-y block zeroed on
    request), "random-phase" (uniform PhaseTable in cycles).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shape = (n,) * rank
    if kind == "gaussian-symbol":
        vals = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        return SymbolTable(n, rank, vals)
    if kind == "quadratic-phase":
        q = rng.integers(-2, 3, size=rank)
        m = rng.integers(-2, 3, size=(rank, rank))
        m = m + m.T  # symmetric with even diagonal, well-defined for every n
        if zero_mixed:
            m[0, 1] = m[1, 0] = 0
        qp = QuadraticPhase(float(rng.integers(0, 4)) / 4.0, q, m)
        qp.check_well_defined(n)
        return qp
    if kind == "random-phase":
        return PhaseTable(n, rank, rng.random(shape))
    raise ConfigError(f"unknown ensemble kind {kind!r}")


def _trial_rng(seed: int, n: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, n, trial])


def _build_trial(spec: TheoremSpec, n: int, rng) -> tuple:
    """(operator, norm-object array, metadata) for one draw."""
    rank = 2 if spec.form in ("kernel", "easy") else 3
    sym = gen_ensemble("gaussian-symbol", n, rng, rank=rank)
    meta = {}
    if spec.form == "kernel":
        return OperatorMatrix(n, sym.values), sym.values, meta

    if spec.phase == "random":
        phase = gen_ensemble("random-phase", n, rng, rank=rank)
        meta["phase"] = "random"
    else:
        qp = gen_ensemble("quadratic-phase", n, rng, rank=rank,
                          zero_mixed=(spec.phase == "quadratic-zero-mixed"))
        phase = quadratic_phase_table(qp, rank, n)
        meta["phase"] = spec.phase
        if rank == 2:
            meta["det_mixed_block"] = float(qp.m[0, 1])
        else:
            block = np.array([[qp.m[0, 1], qp.m[0, 2]], [qp.m[1, 2], qp.m[2, 2]]])
            meta["det_nondegeneracy_block"] = float(np.linalg.det(block))

    op = (build_easy_fio if spec.form == "easy" else build_hard_fio)(sym, phase)
    obj = sym.values if spec.norm_object == "bare" else oscillatory(sym, phase)
    return op, obj, meta


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _run_trials(cfg: ExperimentConfig, label: str, exps: ExponentVector,
                trial) -> Report:
    """The seeded loop every experiment runs: one window per n, one
    generator per (n, trial), and `trial(n, window, rng)` returning
    (schatten, mixednorm, metadata) for that draw."""
    records, per_n = [], {}
    for n in cfg.n_values:
        window = make_window(cfg.window_kind, n, cfg.seed)
        for t in range(cfg.trials):
            s, m, meta = trial(n, window, _trial_rng(cfg.seed, n, t))
            ratio = 0.0 if s == 0.0 else s / m
            records.append(TrialRecord(label, n, t, cfg.p, s, m, ratio, cfg.seed, meta))
            per_n[n] = max(per_n.get(n, 0.0), ratio)
    positives = [v for v in per_n.values() if v > 0]
    growth = (max(positives) / min(positives)) if positives else 0.0
    return Report(label, records, per_n, growth, _config_extra(cfg, exps))


def ratio_experiment(cfg: ExperimentConfig) -> Report:
    """Schatten-vs-mixed-modulation-norm ratios for one theorem.

    T4.2a compares instead the (2, p) norm of a pointwise product f g with
    the bound ||f||_(2, p) ||g||_(inf, 1) and labels its rows MULT.
    """
    if cfg.theorem_id in SHARPNESS:
        raise ConfigError("use the sharpness subcommand for SHARP-* ids")
    exps = cfg.exponents()
    spec = THEOREMS[cfg.theorem_id]

    def trial(n, window, rng):
        if cfg.theorem_id == "T4.2a":
            f = random_signal(n, 1, rng)
            g = random_signal(n, 1, rng)
            prod = FiniteSignal(n, 1, f.values * g.values)
            return (mixed_modulation_norm(prod, window, cfg.permutation, exps),
                    mixed_modulation_norm(f, window, cfg.permutation, exps)
                    * mixed_modulation_norm(g, window, Permutation.identity(2),
                                            ExponentVector((INF, 1.0))),
                    {})
        op, obj, meta = _build_trial(spec, n, rng)
        return (schatten_norm(op, cfg.p),
                mixed_modulation_norm(obj, window, cfg.permutation, exps), meta)

    label = "MULT" if cfg.theorem_id == "T4.2a" else cfg.theorem_id
    return _run_trials(cfg, label, exps, trial)


def tensor_mixed_norm(factors, window: FiniteSignal, c: Permutation,
                      exps: ExponentVector) -> float:
    """Mixed modulation norm of a tensor product, computed factor by factor.

    `factors` lists (array, axes) pairs; `axes` are the 1-based product
    axes that the array's own axes fill, in order, and together they
    partition 1..rank.  Exact because the STFT of a tensor product against
    a tensor-power window splits axis by axis, so nested contractions factor.
    """
    rank = sum(len(axes) for _, axes in factors)
    if sorted(a for _, axes in factors for a in axes) != list(range(1, rank + 1)):
        raise ValueError(f"factor axes must partition 1..{rank}")
    norm = 1.0
    for arr, axes in factors:
        # Product time axis a and frequency axis rank + a become the
        # factor's own axes j and len(axes) + j; levels keep their order.
        local = {}
        for j, a in enumerate(axes, start=1):
            local[a] = j
            local[rank + a] = len(axes) + j
        levels = [lv for lv, axis in enumerate(c.image) if axis in local]
        perm = Permutation(tuple(local[c.image[lv]] for lv in levels))
        sub = ExponentVector(tuple(exps.exps[lv] for lv in levels))
        norm *= mixed_modulation_norm(arr, window, perm, sub)
    return norm


def sharpness_experiment(cfg: ExperimentConfig) -> Report:
    """Closed-form blow-up families with one or more exponent slots raised."""
    if cfg.theorem_id not in SHARPNESS:
        raise ConfigError(f"{cfg.theorem_id} is not a sharpness experiment id")
    exps = cfg.exponents()
    arm = "control" if cfg.control_arm else "violated"

    def trial(n, window, rng):
        ones = np.ones(n, dtype=np.complex128)
        if cfg.base_theorem == "T2.9":
            op = OperatorMatrix(n, np.outer(ones, ones))
            factors = [(ones, (1,)), (ones, (2,))]
        else:
            # Hard form with symbol b1(x, y) (x) 1(xi) and zero phase: summing
            # out xi leaves the kernel sqrt(n) * b1.
            b1 = gen_ensemble("gaussian-symbol", n, rng, rank=2).values
            op = OperatorMatrix(n, np.sqrt(n) * b1)
            factors = [(b1, (1, 2)), (ones, (3,))]
        return (schatten_norm(op, cfg.p),
                tensor_mixed_norm(factors, window, cfg.permutation, exps),
                {"arm": arm})

    return _run_trials(cfg, cfg.theorem_id, exps, trial)


def _config_extra(cfg: ExperimentConfig, exps: ExponentVector) -> dict:
    return {
        "n_values": list(cfg.n_values),
        "p": cfg.p,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "permutation": list(cfg.permutation.image),
        "exponents": [str(e) for e in exps.exps],
        "window": cfg.window_kind,
        "ratio_ceiling": cfg.ratio_ceiling,
        "growth_floor": cfg.growth_floor,
        "control_arm": cfg.control_arm,
    }
