"""CLI: subcommand plumbing, exit codes, serialized IO round-trips."""

import argparse
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from gaborlab import cli
from gaborlab.cli import build_parser, run_cli
from gaborlab.lab import ExperimentConfig, ratio_experiment
from gaborlab.serialize import array_from_dict, signal_from_dict, signal_to_dict
from gaborlab.signals import periodized_gaussian, random_signal, stft


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(0)
    w = tmp_path / "w.json"
    f = tmp_path / "f.json"
    dump_json(signal_to_dict(periodized_gaussian(16)), w)
    dump_json(signal_to_dict(random_signal(16, 1, rng)), f)
    return tmp_path, str(w), str(f)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "gaborlab" in capsys.readouterr().out


def test_unknown_subcommand(capsys):
    assert run_cli(["frobnicate"]) == 1


def test_dgt_roundtrip(files):
    tmp, w, f = files
    out = str(tmp / "v.json")
    assert run_cli(["dgt", "--input", f, "--window", w, "--out", out]) == 0
    payload = load_json(out)
    assert payload["n"] == 16 and payload["shape"] == [16, 16]
    want = stft(signal_from_dict(load_json(f)), signal_from_dict(load_json(w)))
    np.testing.assert_array_equal(array_from_dict(payload), want)


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["schatten", "--matrix", str(bad), "--p", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,payload,names", [
    (["dgt", "--input", "{}", "--window", "{w}"], [1, 2], "JSON object"),
    (["dgt", "--input", "{}", "--window", "{w}"], {"re": [1, 2, 3, 4]}, "'n'"),
    (["dgt", "--input", "{w}", "--window", "{}"], {"n": 4}, "'re'"),
    (["framebounds", "--window", "{}", "--a", "2", "--b", "2"], [1, 2], "JSON object"),
    (["dualwindow", "--window", "{}", "--a", "2", "--b", "2"], {"re": [1, 0]}, "'n'"),
    (["tightwindow", "--window", "{}", "--a", "2", "--b", "2"], 3, "JSON object"),
    (["mixednorm", "--array", "{}", "--perm", "1,2", "--exps", "2,2"], [[1, 2]],
     "JSON object"),
    (["mixednorm", "--array", "{}", "--perm", "1,2", "--exps", "2,2"], {"shape": [2, 2]},
     "'re'"),
    (["schatten", "--matrix", "{}", "--p", "1.5"], [[1, 0], [0, 1]], "JSON object"),
    (["schatten", "--matrix", "{}", "--p", "1.5"], {"n": 2}, "'re'"),
    # Sizes are JSON integers: null, a float or a bare number for a list is refused.
    (["dgt", "--input", "{}", "--window", "{w}"], {"n": None, "re": [1, 2, 3, 4]}, '"n"'),
    (["dgt", "--input", "{}", "--window", "{w}"], {"n": 4, "dim": None, "re": [1, 2, 3, 4]},
     '"dim"'),
    (["mixednorm", "--array", "{}", "--perm", "1,2", "--exps", "2,2"],
     {"shape": 4, "re": [1, 2, 3, 4]}, '"shape"'),
    (["schatten", "--matrix", "{}", "--p", "1.5"], {"n": 2.5, "re": [1, 0, 0, 0]}, '"n"'),
    # Values are JSON numbers: an object in "re" or "im" is refused.
    (["dgt", "--input", "{}", "--window", "{w}"], {"n": 4, "re": {"a": 1}}, '"re"'),
    (["schatten", "--matrix", "{}", "--p", "1.5"], {"n": 2, "re": [1, 0, 0, 1], "im": {"a": 1}},
     '"im"'),
    # A matrix has at least one entry, as a signal has at least one value.
    (["schatten", "--matrix", "{}", "--p", "1.5"], {"re": []}, "nonempty"),
    (["schatten", "--matrix", "{}", "--p", "1.5"], {"n": 0, "re": [], "im": []}, "nonempty"),
], ids=["dgt-list", "dgt-no-n", "dgt-window-no-re", "framebounds-list", "dualwindow-no-n",
        "tightwindow-number", "mixednorm-list", "mixednorm-no-re", "schatten-list",
        "schatten-no-re", "dgt-n-null", "dgt-dim-null", "mixednorm-shape-number",
        "schatten-n-float", "dgt-re-dict", "schatten-im-dict", "schatten-empty",
        "schatten-n-zero"])
def test_malformed_input_file_exits_one(files, capsys, argv, payload, names):
    tmp, w, _ = files
    bad = tmp / "bad.json"
    dump_json(payload, bad)
    argv = [arg.format(str(bad), w=w) for arg in argv]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(bad) in captured.err and names in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "T2.9", "--n", "8", "--trials", "1"],
    ["framebounds", "--window", "{w}", "--a", "2", "--b", "2"],
], ids=["verify", "framebounds"])
def test_unwritable_out_exits_one(files, capsys, argv):
    tmp, w, _ = files
    out = tmp / "missing" / "x.out"
    assert run_cli([arg.format(w=w) for arg in argv] + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert captured.out == "" and not out.exists()


def test_framebounds_and_duals(files, capsys):
    tmp, w, f = files
    assert run_cli(["framebounds", "--window", w, "--a", "2", "--b", "2",
                    "--n", "16"]) == 0
    bounds = json.loads(capsys.readouterr().out)
    assert 0 < bounds["A"] <= bounds["B"]

    dual = str(tmp / "dual.json")
    assert run_cli(["dualwindow", "--window", w, "--a", "2", "--b", "2",
                    "--out", dual]) == 0
    assert signal_from_dict(load_json(dual)).n == 16

    tight = str(tmp / "tight.json")
    assert run_cli(["tightwindow", "--window", w, "--a", "2", "--b", "2",
                    "--out", tight]) == 0


def test_framebounds_size_mismatch(files, capsys):
    _, w, _ = files
    assert run_cli(["framebounds", "--window", w, "--a", "2", "--b", "2",
                    "--n", "8"]) == 1


def test_mixednorm_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(1)
    v = rng.standard_normal((4, 4, 4, 4))
    path = tmp_path / "arr.json"
    dump_json({"shape": [4, 4, 4, 4], "re": v.ravel().tolist()}, path)
    assert run_cli(["mixednorm", "--array", str(path), "--perm", "1,3,2,4",
                    "--exps", "2,2,1,inf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mixed_norm"] > 0


@pytest.mark.parametrize("entry,exps,norm", [
    (1e200, "2,2", 2e200),
    (1e-200, "2,2", 2e-200),
    (1e-200, "2,1.5", 2 ** (7 / 6) * 1e-200),  # (2 (2^0.5 x)^1.5)^(1/1.5)
])
def test_mixednorm_of_extreme_entries(tmp_path, capsys, entry, exps, norm):
    path = tmp_path / "extreme.json"
    dump_json({"shape": [2, 2], "re": [entry] * 4}, path)
    assert run_cli(["mixednorm", "--array", str(path), "--perm", "1,2",
                    "--exps", exps]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["mixed_norm"] == pytest.approx(norm, rel=1e-12, abs=0)
    assert captured.err == ""


def test_non_finite_result_exits_two(tmp_path, capsys):
    # The l^1 norm of four entries of 1e308 is 4e308, past the largest double.
    path = tmp_path / "big.json"
    dump_json({"shape": [2, 2], "re": [1e308] * 4}, path)
    out = tmp_path / "norm.json"
    with np.errstate(over="ignore"):
        code = run_cli(["mixednorm", "--array", str(path), "--perm", "1,2",
                        "--exps", "1,1", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: non-finite values in result\n"
    assert captured.out == "" and not out.exists()


def test_non_finite_trial_records_exit_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr("gaborlab.lab.schatten_norm", lambda op, p: math.nan)
    out = tmp_path / "x.csv"
    code = run_cli(["verify", "--theorem", "T2.9", "--n", "4", "--trials", "1",
                    "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: non-finite values in trial records\n"
    assert captured.out == "" and not out.exists()


def test_schatten_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((6, 6))
    path = tmp_path / "A.json"
    dump_json({"n": 6, "re": m.tolist()}, path)
    assert run_cli(["schatten", "--matrix", str(path), "--p", "1.5",
                    "--spectrum"]) == 0
    out = json.loads(capsys.readouterr().out)
    # Matrices are read as complex; a real SVD of m differs in the last bits.
    np.testing.assert_array_equal(out["singular_values"],
                                  np.linalg.svd(m.astype(complex), compute_uv=False))


def test_schatten_p_inf_is_the_largest_singular_value(tmp_path, capsys):
    path = tmp_path / "A.json"
    dump_json({"n": 3, "re": [[3, 0, 0], [0, 2, 0], [0, 0, 1]]}, path)
    assert run_cli(["schatten", "--matrix", str(path), "--p", "inf"]) == 0
    assert json.loads(capsys.readouterr().out) == {"p": "inf", "schatten_norm": 3.0}


def test_verify_row_count_and_determinism(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    args = ["verify", "--theorem", "T3.1", "--n", "8,12", "--p", "1.5",
            "--trials", "4", "--seed", "42"]
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    body1 = open(out1).read()
    assert body1 == open(out2).read()
    assert len(body1.strip().split("\n")) == 1 + 4 * 2  # header + trials * |n|
    capsys.readouterr()


def test_verify_bad_perm_exits_one(capsys):
    assert run_cli(["verify", "--theorem", "T3.1", "--n", "8",
                    "--perm", "1,2,3,4"]) == 1


@pytest.mark.parametrize("theorem,perm", [("T4.5a", "1,2"), ("T4.5b", "1,2,3,4")])
def test_verify_wrong_length_perm_exits_one(capsys, theorem, perm):
    assert run_cli(["verify", "--theorem", theorem, "--n", "8", "--perm", perm]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"required by {theorem}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key,value", [
    ("trials", 2.5),
    ("trials", True),
    ("seed", 1.5),
    ("p", True),
    ("n_values", [4.7]),
    ("n_values", [8.0]),
    ("ratio_ceiling", "x"),
    ("ratio_ceiling", math.nan),
    ("growth_floor", math.inf),
    ("growth_floor", None),
    ("permutation", [1.9, 3, 2, 4]),
    ("permutation", "1324"),
    ("n_values", 5),
    ("n_values", "8"),
    ("permutation", 5),
    ("permutation", "1,3,2,4"),
    ("theorem_id", ["T3.1"]),
    ("theorem_id", 31),
], ids=["trials-2.5", "trials-true", "seed-1.5", "p-true", "n-4.7", "n-8.0",
        "ceiling-x", "ceiling-nan", "floor-inf", "floor-null", "perm-1.9",
        "perm-string", "n-5", "n-text", "perm-5", "perm-text", "theorem-list",
        "theorem-int"])
def test_verify_config_value_types(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.json"
    fields = {"theorem_id": "T3.1", "n_values": [8], "trials": 2, "seed": 9}
    fields[key] = value
    dump_json(fields, cfg)
    out = tmp_path / "r.csv"
    assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert key in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", [True, 1, ["a"]], ids=["true", "int", "list"])
def test_verify_config_output_path_must_be_text(tmp_path, value):
    """Without --out the config's output_path is opened as given, and open()
    reads a bool or an int as a file descriptor (true is stdout). Run in a
    fresh interpreter, so a regression cannot close the test runner's fds."""
    cfg = tmp_path / "exp.json"
    dump_json({"theorem_id": "T2.9", "n_values": [4], "trials": 1, "output_path": value}, cfg)
    proc = _module_cli("verify", "--config", str(cfg))
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "output_path" in lines[0]


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    dump_json({"theorem_id": "T3.1", "n_values": [8], "trials": 2,
               "seed": 9, "p": 1.5}, cfg)
    assert run_cli(["verify", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count("T3.1,8,") == 2


def test_sharpness_subcommand(tmp_path, capsys):
    assert run_cli(["sharpness", "--theorem", "SHARP-T4.3", "--n", "8,16",
                    "--p", "2", "--trials", "1", "--seed", "1"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["growth_factor"] == pytest.approx(2.0, rel=1e-10)


def test_sharpness_control_arm(capsys):
    assert run_cli(["sharpness", "--theorem", "SHARP-T4.3", "--n", "8,16",
                    "--p", "2", "--trials", "1", "--seed", "1",
                    "--control"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["growth_factor"] <= 1.5


def test_verify_runs_the_multiplication_bound(capsys):
    """`verify --theorem T4.2a` prints the MULT rows and summary of the T4.2a experiment."""
    assert run_cli(["verify", "--theorem", "T4.2a", "--n", "8,12", "--p", "1.25",
                    "--trials", "2", "--seed", "3"]) == 0
    report = ratio_experiment(ExperimentConfig(theorem_id="T4.2a", n_values=(8, 12), p=1.25,
                                               trials=2, seed=3))
    assert capsys.readouterr().out == report.csv_body() + json.dumps(
        report.summary(), sort_keys=True) + "\n"
    assert report.summary()["theorem"] == "MULT"


@pytest.mark.parametrize("flags,names", [
    (["--n", "8", "--trials", "0"], "trials"),
    (["--n", "1"], "n_values"),
], ids=["trials-0", "n-1"])
def test_verify_multiplication_bound_rejects(tmp_path, capsys, flags, names):
    out = tmp_path / "mult.csv"
    assert run_cli(["verify", "--theorem", "T4.2a", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert names in captured.err
    assert captured.out == "" and not out.exists()


USAGE_ERRORS = {
    "subcommand": (["frobnicate"], "command"),
    "window-bogus": (["verify", "--theorem", "T3.1", "--n", "8", "--window", "bogus"],
                     "--window"),
    "n-8,x": (["verify", "--theorem", "T3.1", "--n", "8,x"], "--n"),
    "n-8,8": (["verify", "--theorem", "T2.9", "--n", "8,8", "--trials", "2"], "n_values"),
    "raise-5": (["sharpness", "--theorem", "SHARP-T4.3", "--n", "8", "--raise", "5"],
                "--raise"),
    "p-abc": (["verify", "--theorem", "T3.1", "--n", "8", "--p", "abc"], "--p"),
    "no-theorem": (["verify", "--n", "8"], "--theorem (theorem_id) is required"),
    "no-n": (["sharpness", "--theorem", "SHARP-T4.3"], "--n (n_values) is required"),
    "raise-and-control": (["sharpness", "--theorem", "SHARP-T4.3", "--n", "8",
                           "--raise", "5=inf", "--control"], "control_arm"),
}


@pytest.mark.parametrize("argv,names", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_print_one_line(tmp_path, capsys, argv, names):
    out = tmp_path / "r.csv"
    assert run_cli([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert names in captured.err
    assert captured.out == "" and not out.exists()


SHARP_FIELDS = {"theorem_id": "SHARP-T4.3", "n_values": [8]}


@pytest.mark.parametrize("command,payload,names", [
    ("verify", [1, 2], "JSON object"),
    ("verify", 3, "JSON object"),
    ("sharpness", {**SHARP_FIELDS, "raise_slots": [5]}, "raise_slots"),
    ("sharpness", {**SHARP_FIELDS, "control_arm": "no"}, "control_arm"),
    ("sharpness", {**SHARP_FIELDS, "raise_slots": {"5": "inf"}, "control_arm": True},
     "control_arm"),
    ("sharpness", {**SHARP_FIELDS, "raise_slots": {"5": True}}, "raise_slots"),
    ("sharpness", {**SHARP_FIELDS, "raise_slots": {"x": "inf"}}, "raise_slots"),
], ids=["list", "number", "raise-list", "control-no", "raise-and-control", "raise-true",
        "raise-slot-x"])
def test_config_file_rejects(tmp_path, capsys, command, payload, names):
    cfg = tmp_path / "exp.json"
    dump_json(payload, cfg)
    out = tmp_path / "r.csv"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert names in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("payload,message", [
    ({**SHARP_FIELDS, "bogus": 1}, "{cfg} has unknown key 'bogus'"),
    ({"n_values": [8]}, "--theorem (theorem_id) is required"),
], ids=["unknown-key", "no-theorem"])
def test_config_file_field_errors_name_the_field(tmp_path, capsys, payload, message):
    cfg = tmp_path / "exp.json"
    dump_json(payload, cfg)
    assert run_cli(["sharpness", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(cfg=cfg)}\n" and captured.out == ""


def _summary_and_csv(tmp_path, capsys, name, argv):
    out = tmp_path / f"{name}.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    return json.loads(capsys.readouterr().out), out.read_bytes()


def test_config_file_and_flags_write_same_bytes(tmp_path, capsys):
    """An integer p in a config file is stored as a float, as --p gives it."""
    cfg = tmp_path / "exp.json"
    dump_json({"theorem_id": "T3.1", "n_values": [8], "trials": 2, "p": 2}, cfg)
    from_file = _summary_and_csv(tmp_path, capsys, "file", ["verify", "--config", str(cfg)])
    from_flags = _summary_and_csv(tmp_path, capsys, "flags", [
        "verify", "--theorem", "T3.1", "--n", "8", "--trials", "2", "--p", "2"])
    assert from_file == from_flags
    assert from_file[0]["p"] == 2.0 and b",2.0," in from_file[1]


@pytest.mark.parametrize("raise_slots", [{"5": "inf"}, {"5": "INF", "1": 3}])
def test_raise_slots_from_file_match_flags(tmp_path, capsys, raise_slots):
    cfg = tmp_path / "exp.json"
    dump_json({"theorem_id": "SHARP-T4.3", "n_values": [8, 16], "trials": 1, "p": 2.0,
               "raise_slots": raise_slots}, cfg)
    from_file = _summary_and_csv(tmp_path, capsys, "file", ["sharpness", "--config", str(cfg)])
    flags = [f"{slot}={q}" for slot, q in raise_slots.items()]
    from_flags = _summary_and_csv(tmp_path, capsys, "flags", [
        "sharpness", "--theorem", "SHARP-T4.3", "--n", "8,16", "--trials", "1", "--p", "2",
        *(arg for flag in flags for arg in ("--raise", flag))])
    assert from_file == from_flags
    exps = from_file[0]["exponents"]
    assert exps[4] == "inf" and exps[0] == ("3.0" if "1" in raise_slots else "2.0")


def test_empty_raise_slots_run_the_control_arm(tmp_path, capsys):
    """A config that raises no slot runs, and reports, the control arm."""
    cfg = tmp_path / "exp.json"
    dump_json({"raise_slots": {}}, cfg)
    argv = ["sharpness", "--theorem", "SHARP-T4.3", "--n", "8,16", "--p", "2"]
    empty = _summary_and_csv(tmp_path, capsys, "empty", [*argv, "--config", str(cfg)])
    control = _summary_and_csv(tmp_path, capsys, "control", [*argv, "--control"])
    assert empty == control
    assert empty[0]["control_arm"] is True


def test_memory_error_exits_one(monkeypatch, capsys):
    def oversized(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "ratio_experiment", oversized)
    assert run_cli(["verify", "--theorem", "T3.1", "--n", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _module_cli(*argv):
    """`python -m gaborlab.cli *argv` in a fresh interpreter."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gaborlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_form_prints_one_error_line():
    """`python -m gaborlab.cli` imports the package first; that import must
    not already hold `gaborlab.cli`, or runpy warns on stderr."""
    proc = _module_cli("verify", "--theorem", "T9", "--n", "8")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_readme_cli_examples_parse():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip() for line in section.replace("\\\n", " ").splitlines()
             if line.strip().startswith("gaborlab ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


SUBCOMMANDS = ("dgt", "framebounds", "dualwindow", "tightwindow", "mixednorm",
               "schatten", "verify", "sharpness")


def _subparsers(parser):
    """The subcommand parsers `parser` holds, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subcommand_parser_matches_full_parser(name):
    alone = _subparsers(build_parser(name))
    assert list(alone) == [name]
    assert alone[name].format_help() == _subparsers(build_parser())[name].format_help()


def test_run_cli_builds_only_the_named_subparser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run_cli(["sharpness", "--theorem", "SHARP-T4.3", "--n", "8", "--p", "2",
                    "--trials", "1"]) == 0
    assert built == ["sharpness"]
    built.clear()
    assert run_cli(["--help"]) == 0
    assert tuple(built) == SUBCOMMANDS
    capsys.readouterr()


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(capsys, name):
    assert run_cli([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: gaborlab {name} ")
