"""Public surface: each module's `__all__` is its API, and the package
re-exports the union of the library modules' lists."""

import importlib
import pathlib

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
