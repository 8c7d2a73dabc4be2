"""Tests of the package's public surface."""

import ast
import importlib
import inspect
from pathlib import Path

import susy_ladder
from susy_ladder import errors


def test_all_names_every_ladder_error():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.LadderError)}
    assert defined <= set(susy_ladder.__all__)
    for name in defined:
        assert getattr(susy_ladder, name) is getattr(errors, name)


def test_every_traced_name_resolves():
    # bench/tracing.py wraps each WRAPPED entry with getattr, so a name dropped
    # here breaks every traced benchmark run. The file is parsed, not
    # imported: it imports the benchmark's own modules.
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    (wrapped,) = [ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    assert wrapped
    for mod_name, cls, attr, _span in wrapped:
        module = importlib.import_module(f"susy_ladder.{mod_name}")
        owner = getattr(module, cls) if cls else module
        assert callable(getattr(owner, attr)), (mod_name, cls, attr)
    # patched to count oracle.grid_points
    assert callable(importlib.import_module("susy_ladder.oracle").eigh_tridiagonal)
