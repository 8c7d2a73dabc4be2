"""Tests of the package's public surface."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susy_ladder
from susy_ladder import errors, verify
from susy_ladder.params import DiracParams, NRParams


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


def test_verify_rows_are_the_benchmarks_checks():
    # bench/workloads.py fails every verify-battery op whose row names differ
    # from bench/checks.py's VERIFY_CHECKS, so a renamed or added row would
    # turn that workload's pass ratio to 0. Parsed, as above.
    checks = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    (expected,) = [ast.literal_eval(node.value) for node in ast.parse(checks.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_CHECKS"]]
    rows = verify.run_all(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))
    assert tuple(r.name for r in rows) == expected


_FIG3 = ["--a", "1", "--b", "2", "--d0", "1", "--mbar", "0.1"]


@pytest.mark.parametrize("argv, other", [
    (["nr-spectrum", "--a", "1.5", "--b", "0.5"], "dirac"),
    (["nr-eigenfunctions", "--a", "1.5", "--b", "0.5", "--levels", "10"], "dirac"),
    (["fig2"], "dirac"),
    (["dirac-spectrum", *_FIG3], "nonrel"),
    (["dirac-eigenfunctions", *_FIG3, "--levels", "4"], "nonrel"),
    (["fig3"], "nonrel"),
], ids=lambda x: x[0] if isinstance(x, list) else x)
def test_mode_loads_only_what_it_uses(argv, other):
    # A fresh interpreter runs the mode in CSV and then in JSON. Neither loads
    # numpy, dataclasses or inspect, or the hierarchy the mode does not use.
    script = ("import contextlib, io, sys\n"
              "from susy_ladder.cli import main\n"
              "for fmt in ('csv', 'json'):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              f"        assert main({argv!r} + ['--format', fmt]) == 0, fmt\n"
              f"unwanted = {{'numpy', 'dataclasses', 'inspect', 'susy_ladder.{other}'}}\n"
              "assert not unwanted & set(sys.modules), unwanted & set(sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
