"""The three benchmark workloads: op schedules, op execution and the
correctness gate.

A workload repeats a fixed cycle of ops until the run's time is used up,
always finishing the cycle it is in and never running fewer than
MIN_CYCLES cycles, so every run executes the same op mix.  Each op gets its own seed derived from the workload seed and its
position in the run; the program only sees inputs generated from it.

gaborlab is imported only when a workload object is built (in the worker
child), so the parent process can read the catalogue below without it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from metrics import stft_bytes

DEFAULT_SEED = 1
# Two cycles hold more than metrics.TAIL_BEYOND ops of each workload's
# slowest class (largest n, or `system` ops), so op_s_tail stays in that
# class however few cycles fit in the run's time.
MIN_CYCLES = 2
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_rank3.json")

# Relative tolerances of the correctness gate.
ORACLE_RTOL = 1e-12       # reference rows and the Moyal spot check
CLOSED_FORM_RTOL = 1e-9   # sharpness growth factors
RECON_RTOL = 1e-9         # frame round trips and FIO slice reconstruction
GROWTH_CEILING = 4.0      # acceptance criterion 8

CSV_HEADER = ["theorem", "n", "trial", "p", "schatten", "mixednorm", "ratio", "seed"]


def op_seed(seed: int, index) -> int:
    """Seed of the op at `index` (any str-able key) in a run with `seed`."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Op:
    kind: str            # op kind, used for warm-up and trace span names
    n: int
    params: dict = field(default_factory=dict)
    seed: int = 0
    index: int = 0
    inputs: dict = None  # generated by Workload.prepare, dropped after the op


class OpFailed(Exception):
    """An op returned an error code or an unexpected result."""


def _gaborlab():
    import gaborlab  # noqa: F401  (loads every submodule)
    from gaborlab import cli, fio, frames, mixednorm, operators, signals
    return cli, fio, frames, mixednorm, operators, signals


class Workload:
    name = ""
    sizes = ()  # (n, rank) of every STFT the workload computes

    def __init__(self, seed: int, tmpdir: str):
        (self.cli, self.fio, self.frames, self.mixednorm, self.operators,
         self.signals) = _gaborlab()
        self.seed = seed
        self.tmpdir = tmpdir

    @classmethod
    def largest_array_bytes(cls) -> int:
        return max(stft_bytes(n, rank) for n, rank in cls.sizes)

    # Subclasses define: cycle(c) -> list[Op] without seeds, warmup_ops(),
    # run(op) -> output, check(records) -> list[(op indices, message)].

    def cycle_ops(self, c: int, first_index: int) -> list:
        ops = self.cycle(c)
        for i, op in enumerate(ops):
            op.index = first_index + i
            op.seed = op_seed(self.seed, op.index)
        return ops

    def prepare(self, op: Op) -> None:
        """Generate the op's inputs (outside its timed interval)."""

    # -- shared checks --------------------------------------------------------

    def moyal_spot_checks(self, window_of, rank: int, perm: tuple, records):
        """Per n: mixed_modulation_norm at all-2 exponents must equal
        ||F|| * ||g||^rank (Moyal) on a symbol drawn here."""
        mn = self.mixednorm
        failures = []
        for n in sorted({rec.op.n for rec in records}):
            rng = np.random.default_rng([self.seed, n, 4242])
            shape = (n,) * rank
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            sig = self.signals.FiniteSignal(n, rank, vals.ravel())
            g = window_of(n)
            got = mn.mixed_modulation_norm(
                sig, g, mn.Permutation(perm), mn.ExponentVector((2.0,) * (2 * rank)))
            want = float(np.linalg.norm(vals) * g.norm() ** rank)
            if not abs(got - want) <= ORACLE_RTOL * want:
                failures.append((_indices(records, lambda r: r.op.n == n),
                                 f"Moyal spot check at n={n}: {got!r} != {want!r}"))
        return failures


@dataclass
class Record:
    op: Op
    latency: float
    output: object = None
    error: str = None


def _indices(records, pred) -> list:
    return [i for i, r in enumerate(records) if pred(r)]


def _rel_close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


# ---------------------------------------------------------------------------
# CLI experiment workloads
# ---------------------------------------------------------------------------


class CliWorkload(Workload):
    """One op = one in-process `gaborlab.cli.run_cli` call with --trials 1."""

    command = ""
    p = ""
    window = ""
    arms = (("", ()),)          # (label, extra CLI args)
    theorems = ()
    repeats = {}                # n -> consecutive ops at that n

    def cycle(self, c: int) -> list:
        return [Op("cli", n, {"theorem": th, "arm": label, "extra": extra})
                for label, extra in self.arms
                for th in self.theorems
                for n, k in self.repeats.items()
                for _ in range(k)]

    def warmup_ops(self) -> list:
        n = min(self.repeats)
        return [Op("cli", n, {"theorem": th, "arm": label, "extra": extra},
                   seed=op_seed(self.seed, f"warmup-{th}-{label}"), index=-1)
                for th in self.theorems for label, extra in self.arms]

    def run(self, op: Op):
        path = os.path.join(self.tmpdir, f"op{op.index}.csv")
        argv = [self.command, "--theorem", op.params["theorem"], "--n", str(op.n),
                "--p", self.p, "--window", self.window, *op.params["extra"],
                "--trials", "1", "--seed", str(op.seed), "--out", path]
        code = self.cli.run_cli(argv)
        if code != 0:
            raise OpFailed(f"run_cli exit code {code}")
        return path

    def read_rows(self, records):
        """(row or None, failures) for each record's CSV output."""
        rows, failures = [], []
        for i, rec in enumerate(records):
            row, msg = None, None
            if rec.error is None:
                try:
                    row = self._parse(rec)
                except (OSError, ValueError) as exc:
                    msg = f"op {rec.op.index}: bad CSV output: {exc}"
            rows.append(row)
            if msg:
                failures.append(([i], msg))
        return rows, failures

    def _parse(self, rec):
        with open(rec.output, newline="") as fh:
            table = list(csv.reader(fh))
        if len(table) != 2 or table[0] != CSV_HEADER:
            raise ValueError(f"expected header and one row, got {table!r}")
        row = dict(zip(CSV_HEADER, table[1]))
        if (row["theorem"], int(row["n"]), int(row["seed"])) != \
                (rec.op.params["theorem"], rec.op.n, rec.op.seed):
            raise ValueError(f"row {table[1]} does not match the op")
        for key in ("schatten", "mixednorm", "ratio"):
            row[key] = float(row[key])
            if not math.isfinite(row[key]):
                raise ValueError(f"non-finite {key}")
        return row

    @staticmethod
    def per_n_growth(rows, members) -> float:
        per_n = {}
        for i in members:
            if rows[i] is not None:
                n = int(rows[i]["n"])
                per_n[n] = max(per_n.get(n, 0.0), rows[i]["ratio"])
        vals = [v for v in per_n.values() if v > 0]
        return max(vals) / min(vals) if vals else math.nan


class Rank3Ratio(CliWorkload):
    name = "rank3-ratio"
    command = "verify"
    p = "1.5"
    window = "gaussian-sampled"
    theorems = ("T3.2", "T4.4b")
    # Four trials per n: the first misses the window cache, three hit it.
    repeats = {8: 4, 12: 4, 16: 4}
    sizes = ((8, 3), (12, 3), (16, 3))

    def check(self, records):
        rows, failures = self.read_rows(records)
        for th in self.theorems:
            members = _indices(records, lambda r: r.op.params["theorem"] == th)
            growth = self.per_n_growth(rows, members)
            if not growth <= GROWTH_CEILING:
                failures.append((members, f"{th}: growth factor {growth!r} "
                                          f"exceeds {GROWTH_CEILING}"))
        if self.seed == DEFAULT_SEED:
            failures += self._check_reference(records, rows)
        failures += self.moyal_spot_checks(
            self.signals.periodized_gaussian, 3, (2, 5, 1, 4, 3, 6), records)
        return failures

    def _check_reference(self, records, rows):
        with open(REFERENCE_PATH) as fh:
            ref = {(r["theorem"], r["n"], r["seed"]): r for r in json.load(fh)["rows"]}
        failures, seen = [], 0
        for i, (rec, row) in enumerate(zip(records, rows)):
            want = ref.get((rec.op.params["theorem"], rec.op.n, rec.op.seed))
            if want is None or row is None:
                continue
            seen += 1
            bad = [k for k in ("schatten", "mixednorm", "ratio")
                   if not _rel_close(row[k], want[k], ORACLE_RTOL)]
            if bad:
                failures.append(([i], f"op {rec.op.index}: {bad} differ from "
                                      f"the reference rows"))
        if seen < len(ref):
            failures.append((list(range(len(records))),
                             f"only {seen} of {len(ref)} reference rows were run"))
        return failures


class SharpnessSweep(CliWorkload):
    name = "sharpness-sweep"
    command = "sharpness"
    p = "2"   # the growth factors are closed forms at p = 2
    window = "delta"
    arms = (("violated", ()), ("control", ("--control",)))
    theorems = ("SHARP-T2.9", "SHARP-T4.3", "SHARP-T4.4")
    # More ops at small n keep the median inside one size class.  With the
    # arms outermost in the cycle, every n=64 op misses gaborlab's shift-index
    # cache, so the slowest ops (which set the tail) form one class.
    repeats = {8: 4, 16: 4, 32: 2, 64: 1}
    sizes = ((64, 2),)

    @staticmethod
    def expected_exponent(theorem: str, arm: str) -> float:
        """ratio(n) = n^e: e = 1.5 (T2.9), 1 (T4.3, T4.4), 0 (control)."""
        if arm == "control":
            return 0.0
        return 1.5 if theorem == "SHARP-T2.9" else 1.0

    def check(self, records):
        rows, failures = self.read_rows(records)
        lo, hi = min(self.repeats), max(self.repeats)
        for th in self.theorems:
            for arm, _ in self.arms:
                members = _indices(records, lambda r: r.op.params["theorem"] == th
                                   and r.op.params["arm"] == arm)
                want = (hi / lo) ** self.expected_exponent(th, arm)
                growth = self.per_n_growth(rows, members)
                if not _rel_close(growth, want, CLOSED_FORM_RTOL):
                    failures.append((members, f"{th} {arm}: growth factor "
                                              f"{growth!r} != {want!r}"))
        failures += self.moyal_spot_checks(
            self.signals.delta, 2, (1, 3, 2, 4), records)
        return failures


# ---------------------------------------------------------------------------
# Gabor frame workload
# ---------------------------------------------------------------------------


class GaborFrames(Workload):
    name = "gabor-frames"
    N = 512
    EQUIVALENCE_N = 128   # small enough that it never sets the latency tail
    SLICE_N = 32
    # Two random windows per cycle give 12 `system` ops in a two-cycle run,
    # so the latency tail (10 ops beyond) falls among the four random-window
    # (8, 4) systems rather than on a lone outlier.
    WINDOWS = ("gauss", "random0", "random1")
    LATTICES = ((4, 4), (8, 4))
    ROUNDTRIPS = {(4, 4): 6, (8, 4): 1}    # per system and cycle
    EQUIVALENCE_LATTICE = (8, 4)
    NONFRAME_LATTICE = (32, 32)            # ab = 1024 > n
    SLICE_LATTICE = (4, 4)
    FREE_OPS = ("nonframe",) * 2 + ("slice",) * 4   # per cycle
    sizes = ((512, 1),)

    @classmethod
    def largest_array_bytes(cls) -> int:
        # The dense element rows, (n^2 / ab) x n, dominate the rank-1 STFT.
        a, b = min(cls.LATTICES, key=lambda ab: ab[0] * ab[1])
        return max(super().largest_array_bytes(), 16 * cls.N ** 3 // (a * b))

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.gauss = {}
        self.duals = {}  # system id -> dual window from its `system` op

    def _gaussian(self, n):
        if n not in self.gauss:
            self.gauss[n] = self.signals.periodized_gaussian(n)
        return self.gauss[n]

    def _random_unit(self, n, seed):
        rng = np.random.default_rng([seed, 7])
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return self.signals.FiniteSignal(n, 1, v / np.linalg.norm(v))

    def _signal(self, n, rng):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return self.signals.FiniteSignal(n, 1, v)

    def cycle(self, c: int) -> list:
        rng = random.Random(op_seed(self.seed, f"cycle-{c}"))
        systems = [(win, lat) for win in self.WINDOWS for lat in self.LATTICES]
        rng.shuffle(systems)
        free = list(self.FREE_OPS)
        rng.shuffle(free)
        ops = []
        for i, (win, lat) in enumerate(systems):
            params = {"system": (c, win, lat), "window": win, "lattice": lat,
                      "window_seed": op_seed(self.seed, f"{win}-{c}")}
            body = [Op("roundtrip", self.N, dict(params))
                    for _ in range(self.ROUNDTRIPS[lat])]
            if lat == self.EQUIVALENCE_LATTICE:
                body.append(Op("equivalence", self.EQUIVALENCE_N, dict(params)))
            body += [Op(kind, self.SLICE_N if kind == "slice" else self.N)
                     for kind in free[i::len(systems)]]
            rng.shuffle(body)
            ops += [Op("system", self.N, params)] + body
        return ops

    def warmup_ops(self) -> list:
        n = 16
        params = {"system": "warmup", "window": "gauss", "lattice": (2, 2),
                  "window_seed": 0}
        return [Op("system", n, params), Op("roundtrip", n, params),
                Op("equivalence", n, params), Op("nonframe", n, {"lattice": (8, 8)}),
                Op("slice", 8, {"lattice": (2, 2)})]

    def _system(self, op):
        p = op.params
        win = self._gaussian(op.n) if p["window"] == "gauss" \
            else self._random_unit(op.n, p["window_seed"])
        return self.frames.GaborSystem(win, *p["lattice"])

    def prepare(self, op):
        rng = np.random.default_rng(op.seed)
        p, q = op.params, {}
        op.inputs = q
        if op.kind in ("system", "roundtrip", "equivalence"):
            q["sys"] = self._system(op)
        if op.kind == "roundtrip":
            q["f"] = self._signal(op.n, rng)
        elif op.kind == "equivalence":
            q["testset"] = [self._signal(op.n, rng) for _ in range(2)]
            q["perm"] = self.mixednorm.Permutation((1, 2))
            q["exps"] = self.mixednorm.ExponentVector((1.5, 1.5))
        elif op.kind == "nonframe":
            q["sys"] = self.frames.GaborSystem(
                self._gaussian(op.n), *p.get("lattice", self.NONFRAME_LATTICE))
        elif op.kind == "slice":
            n = op.n
            shape = (n, n, n)
            b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
            q["b"] = self.operators.SymbolTable(n, 3, b)
            q["psi"] = self.operators.PhaseTable(n, 3, rng.random(shape))
            q["sys"] = self.frames.GaborSystem(
                self._gaussian(n), *p.get("lattice", self.SLICE_LATTICE))

    def run(self, op):
        fr, p, q = self.frames, op.params, op.inputs
        if op.kind == "system":
            bounds = fr.frame_bounds(q["sys"])
            gamma = fr.dual_window(q["sys"])
            tight = fr.canonical_tight_window(q["sys"])
            self.duals[p["system"]] = gamma
            return bounds, gamma.values, tight.values
        if op.kind == "roundtrip":
            gamma = self.duals.get(p["system"])
            if gamma is None:
                raise OpFailed("no dual window: the system op did not succeed")
            coeffs = fr.analyze(q["sys"], q["f"])
            back = fr.synthesize(q["sys"].with_window(gamma), coeffs)
            return q["f"].values, back.values
        if op.kind == "equivalence":
            return fr.banach_frame_equivalence(q["sys"], q["perm"], q["exps"],
                                               q["testset"])
        if op.kind == "nonframe":
            try:
                fr.dual_window(q["sys"])
            except fr.NotAFrameError:
                return "NotAFrameError"
            raise OpFailed("dual_window accepted a lattice with ab > n")
        if op.kind == "slice":
            weights, ops = self.fio.fio_slice_family(q["b"], q["psi"], q["sys"])
            return q["b"], q["psi"], weights, ops
        raise ValueError(f"unknown op kind {op.kind}")

    def check(self, records):
        failures = []
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            msg = self._check_one(rec.op, rec.output)
            if msg:
                failures.append(([i], f"op {rec.op.index} ({rec.op.kind}): {msg}"))
        failures += self.moyal_spot_checks(self._gaussian, 1, (1, 2), records)
        return failures

    def _check_one(self, op, out):
        if op.kind == "system":
            (a, b), gamma, tight = out
            if not (0.0 < a <= b and math.isfinite(b)):
                return f"frame bounds A={a!r}, B={b!r} violate 0 < A <= B"
            if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(tight))):
                return "non-finite dual or tight window"
        elif op.kind == "roundtrip":
            f, back = out
            err = np.linalg.norm(back - f) / np.linalg.norm(f)
            if not err <= RECON_RTOL:
                return f"reconstruction error {err:.3e}"
        elif op.kind == "equivalence":
            lo, hi = out
            if not (0.0 < lo <= hi and math.isfinite(hi)):
                return f"ratio extremes ({lo!r}, {hi!r}) are not 0 < lo <= hi"
        elif op.kind == "slice":
            b, psi, weights, ops = out
            want = self.fio.build_hard_fio(b, psi).entries
            got = sum(np.conj(weights[idx]) * ops[idx].entries
                      for idx in np.ndindex(weights.shape))
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            if not err <= RECON_RTOL:
                return f"slice reconstruction error {err:.3e}"
        return None


WORKLOADS = {w.name: w for w in (Rank3Ratio, SharpnessSweep, GaborFrames)}
