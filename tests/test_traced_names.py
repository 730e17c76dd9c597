"""Every function the benchmark's tracer wraps still exists under its name.

`perfbench/spans.py` lists the traced functions as (module, attribute path)
pairs in `TRACED` and looks each one up with `getattr`, so deleting or
renaming one of them breaks a traced benchmark run.  The list is read with
`ast`; nothing from `perfbench/` is imported.
"""

import ast
import functools
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, path in traced:
        owner = importlib.import_module(f"gaborlab.{module}")
        func = functools.reduce(getattr, path.split("."), owner)
        assert callable(func), f"gaborlab.{module}.{path}"
