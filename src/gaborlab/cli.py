"""Command-line interface.

Subcommands: dgt, framebounds, dualwindow, tightwindow, mixednorm,
schatten, verify, sharpness, multbound.  Exit codes: 0 success,
1 configuration/user error, 2 numerical failure (non-finite values).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .frames import GaborSystem, NotAFrameError, canonical_tight_window, \
    dual_window, frame_bounds
from .lab import ConfigError, ExperimentConfig, WINDOW_KINDS, \
    ratio_experiment, sharpness_experiment
from .mixednorm import ExponentVector, Permutation, mixed_norm
from .schatten import schatten_norm, singular_values
from .serialize import array_from_dict, matrix_from_dict, signal_from_dict, \
    signal_to_dict, tfarray_to_dict
from .signals import stft

__all__ = ["main", "run_cli"]


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _emit(obj, path=None):
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise FloatingPointError("non-finite values in result") from None
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_dgt(args) -> int:
    f = signal_from_dict(_load(args.input))
    g = signal_from_dict(_load(args.window))
    _emit(tfarray_to_dict(stft(f, g)), args.out)
    return 0


def _system(args) -> GaborSystem:
    g = signal_from_dict(_load(args.window))
    if args.n is not None and args.n != g.n:
        raise ConfigError(f"--n {args.n} does not match window size {g.n}")
    return GaborSystem(g, args.a, args.b)


def _cmd_framebounds(args) -> int:
    a, b = frame_bounds(_system(args))
    _emit({"A": a, "B": b}, args.out)
    return 0


def _cmd_dualwindow(args) -> int:
    _emit(signal_to_dict(dual_window(_system(args))), args.out)
    return 0


def _cmd_tightwindow(args) -> int:
    _emit(signal_to_dict(canonical_tight_window(_system(args))), args.out)
    return 0


def _cmd_mixednorm(args) -> int:
    arr = array_from_dict(_load(args.array))
    value = mixed_norm(arr, Permutation.parse(args.perm),
                       ExponentVector.parse(args.exps))
    _emit({"mixed_norm": value}, args.out)
    return 0


def _cmd_schatten(args) -> int:
    mat = matrix_from_dict(_load(args.matrix))
    # JSON has no infinity, so p = inf is echoed as text, as config files give it.
    out = {"p": "inf" if math.isinf(args.p) else args.p,
           "schatten_norm": schatten_norm(mat, args.p)}
    if args.spectrum:
        out["singular_values"] = list(singular_values(mat).values)
    _emit(out, args.out)
    return 0


def _cmd_experiment(args) -> int:
    # The config file's fields, overlaid by every experiment flag given.
    fields = _load(args.config) if getattr(args, "config", None) else {}
    if not isinstance(fields, dict):
        raise ConfigError(f"{args.config} must hold a JSON object")
    fields.update((name, value) for name, value in vars(args).items()
                  if name in _CONFIG_FIELDS and value is not None)
    try:
        cfg = ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    report = args.experiment(cfg)
    if not report.all_finite():
        print("error: non-finite values in trial records", file=sys.stderr)
        return 2
    if cfg.output_path:
        report.write_csv(cfg.output_path)
    else:
        sys.stdout.write(report.csv_body())
    print(json.dumps(report.summary(), sort_keys=True))
    return 0


def _cmd_multbound(args) -> int:
    exps = ExponentVector.parse(args.exps).exps
    if len(exps) != 2 or exps[0] != 2.0:
        raise ConfigError(f"--exps must follow the (2, q) pattern, got {args.exps}")
    args.p = exps[1]
    return _cmd_experiment(args)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_lattice_flags(sp):
    sp.add_argument("--window", required=True, help="window signal JSON file")
    sp.add_argument("--a", type=int, required=True, help="time step")
    sp.add_argument("--b", type=int, required=True, help="frequency step")
    sp.add_argument("--n", type=int, default=None, help="expected group size")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")


def _typed(convert):
    """argparse type= for `convert` that keeps its ValueError message."""
    def typed(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    return typed


class _RaiseSlot(argparse.Action):
    """Gathers --raise SLOT=EXP into a raise_slots mapping, as in a config file."""

    def __call__(self, parser, namespace, text, option_string=None):
        if "=" not in text:
            raise argparse.ArgumentError(self, f"expected SLOT=EXP, got {text!r}")
        slot, _, exp = text.partition("=")
        setattr(namespace, self.dest, {**(getattr(namespace, self.dest) or {}), slot: exp})


# Experiment flags.  Each dest is the ExperimentConfig field the flag sets;
# a flag left at its default None is not given and does not override.
# sharpness takes every flag, verify all but the last two.
_EXPERIMENT_FLAGS = {
    "--theorem": dict(dest="theorem_id", metavar="THEOREM", help="theorem id, e.g. T3.2"),
    "--n": dict(dest="n_values", metavar="N", help="comma-separated group sizes",
                type=_typed(lambda text: [int(tok) for tok in text.split(",")])),
    "--p": dict(type=float), "--trials": dict(type=int), "--seed": dict(type=int),
    "--perm": dict(dest="permutation", metavar="PERM", type=_typed(Permutation.parse),
                   help="permutation image, e.g. 2,5,1,4,3,6"),
    "--window": dict(dest="window_kind", choices=WINDOW_KINDS),
    "--config": dict(help="JSON config file"),
    "--out": dict(dest="output_path", metavar="OUT", help="CSV output path"),
    "--raise": dict(dest="raise_slots", action=_RaiseSlot, metavar="SLOT=EXP",
                    help="raise exponent slot, e.g. --raise 5=inf"),
    "--control": dict(dest="control_arm", action="store_const", const=True,
                      help="run the compliant-exponent control arm"),
}
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, reported like every other input error."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    for name, experiment, flags, help_text in (
        ("verify", ratio_experiment, list(_EXPERIMENT_FLAGS)[:-2],
         "ratio experiment for one theorem"),
        ("sharpness", sharpness_experiment, _EXPERIMENT_FLAGS,
         "blow-up experiment for SHARP-* ids"),
        ("multbound", ratio_experiment,
         ("--n", "--seed", "--perm", "--trials", "--window", "--out"),
         "pointwise multiplication bound"),
    ):
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_EXPERIMENT_FLAGS[flag])
        sp.set_defaults(func=_cmd_experiment, experiment=experiment)
    # multbound, built last, checks its own --exps and runs T4.2a.
    sp.add_argument("--exps", default="2,1.5", help="exponents 2,q")
    sp.set_defaults(func=_cmd_multbound, theorem_id="T4.2a")

    return parser


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; usage errors raise ConfigError
        return exc.code
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
