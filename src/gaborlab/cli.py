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


def _read(path, convert=None):
    """The JSON object in `path`, passed through `convert` if one is given."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    try:
        return convert(payload) if convert else payload
    except KeyError as exc:
        raise ConfigError(f"{path} has no {exc} key") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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


def _json_tool(compute):
    """Handler that writes the object `compute(args)` returns as JSON."""
    def handler(args) -> int:
        _emit(compute(args), args.out)
        return 0
    return handler


def _system(args) -> GaborSystem:
    g = _read(args.window, signal_from_dict)
    if args.n is not None and args.n != g.n:
        raise ConfigError(f"--n {args.n} does not match window size {g.n}")
    return GaborSystem(g, args.a, args.b)


def _schatten(args) -> dict:
    mat = _read(args.matrix, matrix_from_dict)
    # JSON has no infinity, so p = inf is echoed as text, as config files give it.
    out = {"p": "inf" if math.isinf(args.p) else args.p,
           "schatten_norm": schatten_norm(mat, args.p)}
    if args.spectrum:
        out["singular_values"] = singular_values(mat).tolist()
    return out


def _experiment(args, experiment) -> int:
    # The config file's fields, overlaid by every experiment flag given.
    fields = _read(args.config) if getattr(args, "config", None) else {}
    fields.update((name, value) for name, value in vars(args).items()
                  if name in _CONFIG_FIELDS and value is not None)
    try:
        cfg = ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    report = experiment(cfg)
    if not report.all_finite():
        print("error: non-finite values in trial records", file=sys.stderr)
        return 2
    if cfg.output_path:
        report.write_csv(cfg.output_path)
    else:
        sys.stdout.write(report.csv_body())
    print(json.dumps(report.summary(), sort_keys=True))
    return 0


def _multbound(args) -> int:
    exps = ExponentVector.parse(args.exps).exps
    if len(exps) != 2 or exps[0] != 2.0:
        raise ConfigError(f"--exps must follow the (2, q) pattern, got {args.exps}")
    args.theorem_id, args.p = "T4.2a", exps[1]
    return _experiment(args, ratio_experiment)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


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

_JSON_OUT = {"--out": dict(help="output JSON path (default stdout)")}
_LATTICE_FLAGS = {
    "--window": dict(required=True, help="window signal JSON file"),
    "--a": dict(type=int, required=True, help="time step"),
    "--b": dict(type=int, required=True, help="frequency step"),
    "--n": dict(type=int, help="expected group size"),
    **_JSON_OUT,
}

# Every subcommand: name -> (help, flags, handler).  The experiments are
# looked up when a command runs, so a replaced module attribute takes effect.
_COMMANDS = {
    "dgt": ("discrete Gabor transform of a signal",
            {"--input": dict(required=True), "--window": dict(required=True), **_JSON_OUT},
            _json_tool(lambda args: tfarray_to_dict(stft(
                _read(args.input, signal_from_dict), _read(args.window, signal_from_dict))))),
    "framebounds": ("optimal Gabor frame bounds", _LATTICE_FLAGS,
                    _json_tool(lambda args: dict(zip("AB", frame_bounds(_system(args)))))),
    "dualwindow": ("canonical dual window", _LATTICE_FLAGS,
                   _json_tool(lambda args: signal_to_dict(dual_window(_system(args))))),
    "tightwindow": ("canonical tight window", _LATTICE_FLAGS,
                    _json_tool(lambda args: signal_to_dict(canonical_tight_window(
                        _system(args))))),
    "mixednorm": ("mixed norm of a stored array",
                  {"--array": dict(required=True), "--perm": dict(required=True),
                   "--exps": dict(required=True), **_JSON_OUT},
                  _json_tool(lambda args: {"mixed_norm": mixed_norm(
                      _read(args.array, array_from_dict), Permutation.parse(args.perm),
                      ExponentVector.parse(args.exps))})),
    "schatten": ("Schatten p-norm of a stored matrix",
                 {"--matrix": dict(required=True), "--p": dict(type=float, required=True),
                  "--spectrum": dict(action="store_true"), **_JSON_OUT},
                 _json_tool(_schatten)),
    "verify": ("ratio experiment for one theorem",
               {flag: _EXPERIMENT_FLAGS[flag] for flag in list(_EXPERIMENT_FLAGS)[:-2]},
               lambda args: _experiment(args, ratio_experiment)),
    "sharpness": ("blow-up experiment for SHARP-* ids", _EXPERIMENT_FLAGS,
                  lambda args: _experiment(args, sharpness_experiment)),
    "multbound": ("pointwise multiplication bound",
                  {**{flag: _EXPERIMENT_FLAGS[flag] for flag in
                      ("--n", "--seed", "--perm", "--trials", "--window", "--out")},
                   "--exps": dict(default="2,1.5", help="exponents 2,q")},
                  _multbound),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, reported like every other input error."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser holding only subcommand `command`, or all of them if None."""
    parser = _Parser(prog="gaborlab",
                     description="Finite-model time-frequency analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in _COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flag, spec in flags.items():
                sp.add_argument(flag, **spec)
            sp.set_defaults(func=handler)
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A named subcommand gets a parser of its own; --help, no argument or an
    # unknown name get the full parser and so its usage text.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; usage errors raise ConfigError
        return exc.code
    except (ConfigError, NotAFrameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the configuration is too large for this "
              "machine", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


main = run_cli


if __name__ == "__main__":
    sys.exit(main())
