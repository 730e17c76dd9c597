"""Command-line interface.

Subcommands: dgt, framebounds, dualwindow, tightwindow, mixednorm,
schatten, verify, sharpness, multbound.  Exit codes: 0 success,
1 configuration/user error, 2 numerical failure (non-finite values).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .frames import GaborSystem, NotAFrameError, canonical_tight_window, \
    dual_window, frame_bounds
from .lab import ConfigError, ExperimentConfig, ratio_experiment, \
    sharpness_experiment, SHARPNESS_IDS
from .mixednorm import ExponentVector, Permutation, mixed_norm
from .schatten import schatten_norm, singular_values
from .serialize import array_from_dict, load_json, matrix_from_dict, \
    signal_from_dict, signal_to_dict, tfarray_to_dict
from .signals import stft

__all__ = ["main", "run_cli"]


def _load(path):
    try:
        return load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, dtype=np.complex128))):
            raise FloatingPointError("non-finite values in result")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dgt(args) -> int:
    f = signal_from_dict(_load(args.input))
    g = signal_from_dict(_load(args.window))
    spec = stft(f, g)
    _check_finite(spec.values)
    _emit(tfarray_to_dict(spec), args.out)
    return 0


def _system(args) -> GaborSystem:
    g = signal_from_dict(_load(args.window))
    if args.n is not None and args.n != g.n:
        raise ConfigError(f"--n {args.n} does not match window size {g.n}")
    return GaborSystem(g, args.a, args.b)


def _cmd_framebounds(args) -> int:
    a, b = frame_bounds(_system(args))
    _check_finite([a, b])
    _emit({"A": a, "B": b}, args.out)
    return 0


def _cmd_dualwindow(args) -> int:
    gamma = dual_window(_system(args))
    _check_finite(gamma.values)
    _emit(signal_to_dict(gamma), args.out)
    return 0


def _cmd_tightwindow(args) -> int:
    tight = canonical_tight_window(_system(args))
    _check_finite(tight.values)
    _emit(signal_to_dict(tight), args.out)
    return 0


def _cmd_mixednorm(args) -> int:
    arr = array_from_dict(_load(args.array))
    value = mixed_norm(arr, Permutation.parse(args.perm),
                       ExponentVector.parse(args.exps))
    _check_finite([value])
    _emit({"mixed_norm": value}, args.out)
    return 0


def _cmd_schatten(args) -> int:
    mat = matrix_from_dict(_load(args.matrix))
    out = {"p": args.p, "schatten_norm": schatten_norm(mat, args.p)}
    if args.spectrum:
        out["singular_values"] = list(singular_values(mat).values)
    _check_finite([out["schatten_norm"]])
    _emit(out, args.out)
    return 0


def _experiment_config(args, sharp: bool) -> ExperimentConfig:
    fields = {}
    if args.config:
        fields.update(_load(args.config))
    if args.theorem is not None:
        fields["theorem_id"] = args.theorem
    if args.n is not None:
        fields["n_values"] = [int(tok) for tok in args.n.split(",")]
    for name in ("p", "trials", "seed", "window"):
        val = getattr(args, name)
        if val is not None:
            fields["window_kind" if name == "window" else name] = val
    if args.perm is not None:
        fields["permutation"] = Permutation.parse(args.perm)
    if args.out is not None:
        fields["output_path"] = args.out
    if sharp:
        if args.raise_slot:
            slots = {}
            for tok in args.raise_slot:
                slot, _, q = tok.partition("=")
                slots[int(slot)] = math.inf if q.strip().lower() == "inf" else float(q)
            fields["raise_slots"] = slots
        if args.control:
            fields["control_arm"] = True
    if "theorem_id" not in fields:
        raise ConfigError("--theorem (or a config file) is required")
    if "n_values" not in fields:
        raise ConfigError("--n (or a config file) is required")
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _finish_experiment(report, output_path) -> int:
    if not report.all_finite():
        print("error: non-finite values in trial records", file=sys.stderr)
        return 2
    if output_path:
        report.write_csv(output_path)
    else:
        sys.stdout.write(report.csv_body())
    print(json.dumps(report.summary(), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    cfg = _experiment_config(args, sharp=False)
    if cfg.theorem_id in SHARPNESS_IDS:
        raise ConfigError("use the sharpness subcommand for SHARP-* ids")
    return _finish_experiment(ratio_experiment(cfg), cfg.output_path)


def _cmd_sharpness(args) -> int:
    cfg = _experiment_config(args, sharp=True)
    report = sharpness_experiment(cfg)
    return _finish_experiment(report, cfg.output_path)


def _cmd_multbound(args) -> int:
    exps = ExponentVector.parse(args.exps).exps
    if len(exps) != 2 or exps[0] != 2.0:
        raise ConfigError(f"--exps must follow the (2, q) pattern, got {args.exps}")
    args.p = exps[1]
    return _cmd_verify(args)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_lattice_flags(sp):
    sp.add_argument("--window", required=True, help="window signal JSON file")
    sp.add_argument("--a", type=int, required=True, help="time step")
    sp.add_argument("--b", type=int, required=True, help="frequency step")
    sp.add_argument("--n", type=int, default=None, help="expected group size")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")


def _add_experiment_flags(sp, sharp: bool):
    sp.add_argument("--theorem", default=None, help="theorem id, e.g. T3.2")
    sp.add_argument("--n", default=None, help="comma-separated group sizes")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--perm", default=None, help="permutation image, e.g. 2,5,1,4,3,6")
    sp.add_argument("--window", default=None,
                    choices=["delta", "gaussian-sampled", "random"])
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--out", default=None, help="CSV output path")
    if sharp:
        sp.add_argument("--raise", dest="raise_slot", action="append",
                        default=None, metavar="SLOT=EXP",
                        help="raise exponent slot, e.g. --raise 5=inf")
        sp.add_argument("--control", action="store_true",
                        help="run the compliant-exponent control arm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaborlab",
        description="Finite-model time-frequency analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dgt", help="discrete Gabor transform of a signal")
    sp.add_argument("--input", required=True)
    sp.add_argument("--window", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_dgt)

    for name, func, help_text in (
        ("framebounds", _cmd_framebounds, "optimal Gabor frame bounds"),
        ("dualwindow", _cmd_dualwindow, "canonical dual window"),
        ("tightwindow", _cmd_tightwindow, "canonical tight window"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_lattice_flags(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("mixednorm", help="mixed norm of a stored array")
    sp.add_argument("--array", required=True)
    sp.add_argument("--perm", required=True)
    sp.add_argument("--exps", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_mixednorm)

    sp = sub.add_parser("schatten", help="Schatten p-norm of a stored matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--spectrum", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_schatten)

    sp = sub.add_parser("verify", help="ratio experiment for one theorem")
    _add_experiment_flags(sp, sharp=False)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sharpness", help="blow-up experiment for SHARP-* ids")
    _add_experiment_flags(sp, sharp=True)
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("multbound", help="pointwise multiplication bound")
    sp.add_argument("--n", required=True, help="comma-separated group sizes")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--perm", default=None)
    sp.add_argument("--exps", default="2,1.5", help="exponents 2,q")
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--window", default=None,
                    choices=["delta", "gaussian-sampled", "random"])
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_multbound, theorem="T4.2a", config=None)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the config-error code.
        code = exc.code or 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ConfigError, NotAFrameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the configuration is too large for this "
              "machine", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
