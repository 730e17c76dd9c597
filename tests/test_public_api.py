"""Public surface: each module's `__all__` is its API, and the package
re-exports the union of the library modules' lists."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import gaborlab

LIBRARY = ("signals", "operators", "mixednorm", "frames", "fio", "schatten", "lab")
MODULES = LIBRARY + ("serialize", "cli")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gaborlab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


def test_package_all_is_union_of_modules():
    assert len(set(gaborlab.__all__)) == len(gaborlab.__all__)
    homes = {}
    for name in LIBRARY:
        module = importlib.import_module(f"gaborlab.{name}")
        for attr in module.__all__:
            homes[attr] = module
    assert set(gaborlab.__all__) == set(homes)
    for attr, module in homes.items():
        assert getattr(gaborlab, attr) is getattr(module, attr), attr


def test_readme_quick_example_runs():
    text = README.read_text()
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["A"] <= namespace["B"] and namespace["norm"] > 0


def test_numpy_is_the_only_runtime_dependency():
    """Importing the package and its CLI, and running both FFT paths, loads
    no scipy module."""
    code = ("import sys, numpy, gaborlab, gaborlab.cli\n"
            "f = gaborlab.random_signal(4, 2, numpy.random.default_rng(0))\n"
            "gaborlab.dft(f); gaborlab.stft(f, gaborlab.delta(4)); gaborlab.stft(f, f)\n"
            "print(sorted(name for name, module in sys.modules.items()\n"
            "             if module is not None and name.partition('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(README.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
