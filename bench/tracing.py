"""Spans around the calls into each package module, installed from outside.

The tracer replaces public functions and methods of the already-imported
susy_ladder modules with timing wrappers and restores them afterwards; the
package source is untouched. Each span keeps (id, parent, name, start, end)
in flat arrays, which are written out when the run ends. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from checks import VERIFY_CHECKS

# (module, class or None, attribute, span name). Several attributes may share
# one span name: dirac.operator_build sums every operator constructor.
WRAPPED = (
    ("cli", None, "main", "cli.main"),
    ("expalg", "ExpoPoly", "__init__", "expalg.construct"),
    ("expalg", "ExpoPoly", "__add__", "expalg.add"),
    ("expalg", "ExpoPoly", "scale", "expalg.scale"),
    ("expalg", "ExpoPoly", "mul_laurent", "expalg.mul_laurent"),
    ("expalg", "ExpoPoly", "differentiate", "expalg.differentiate"),
    ("expalg", "ExpoPoly", "inner_product", "expalg.inner_product"),
    ("expalg", "ExpoPoly", "eval_array", "expalg.eval_array"),
    ("nonrel", None, "eigenfunction", "nonrel.eigenfunction"),
    ("nonrel", "ScalarLadder", "apply", "nonrel.ladder_apply"),
    ("nonrel", None, "apply_hamiltonian", "nonrel.apply_hamiltonian"),
    ("nonrel", None, "interior_zeros", "nonrel.interior_zeros"),
    ("dirac", "MatrixOp", "apply", "dirac.matrixop_apply"),
    ("dirac", None, "h_operator", "dirac.operator_build"),
    ("dirac", None, "big_hamiltonian", "dirac.operator_build"),
    ("dirac", None, "b_dagger", "dirac.operator_build"),
    ("dirac", None, "b_op", "dirac.operator_build"),
    ("dirac", None, "a_dagger", "dirac.operator_build"),
    ("dirac", None, "a_op", "dirac.operator_build"),
    ("dirac", None, "eigenfunction_chain", "dirac.eigenfunction_chain"),
    ("dirac", None, "spinor_inner", "dirac.spinor_inner"),
    ("oracle", None, "fd_schrodinger_eigs", "oracle.fd_schrodinger_eigs"),
    ("oracle", None, "dirac_spectrum_scan", "oracle.dirac_spectrum_scan"),
    ("oracle", None, "quad_inner", "oracle.quad_inner"),
)
LAYER_FUNCS = tuple(dict.fromkeys(name for *_, name in WRAPPED))
COUNTERS = ("expalg.construct.terms_in", "expalg.construct.terms_kept",
            "oracle.grid_points")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {"cli.python_start_s": "s", "cli.import_s": "s", "cli.main_s": "s"}
    units.update({f"verify.{check}_s": "s" for check in VERIFY_CHECKS})
    for name in LAYER_FUNCS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({c: "count" for c in COUNTERS})
    units["expalg.construct.kept_ratio"] = "ratio"
    units["op.untraced_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def run(self, name: str, fn, *args):
        """Call fn(*args) inside a span named name."""
        sid = self._open(self.name_id(name))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, fn, nid: int, after=None):
        clock, open_, close = time.perf_counter, self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid, t0, clock())
            if after is not None:
                after(sid, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the listed functions of every susy_ladder module already imported."""
        for mod_name, cls, attr, span in WRAPPED:
            module = sys.modules.get(f"susy_ladder.{mod_name}")
            if module is None:
                continue
            owner = getattr(module, cls) if cls else module
            after = self._count_terms if span == "expalg.construct" else None
            self._patch(owner, attr, self._wrap(getattr(owner, attr), self.name_id(span), after))
        verify = sys.modules.get("susy_ladder.verify")
        if verify is not None:
            for attr in [a for a in vars(verify) if a.startswith("check_")]:
                self._patch(verify, attr,
                            self._wrap(getattr(verify, attr), self.name_id("verify.check"),
                                       self._name_check))
        oracle = sys.modules.get("susy_ladder.oracle")
        if oracle is not None:
            solve = oracle.eigh_tridiagonal

            def counted(d, e, *args, **kwargs):
                self.counts["oracle.grid_points"] += len(d)
                return solve(d, e, *args, **kwargs)
            self._patch(oracle, "eigh_tridiagonal", counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_terms(self, sid, args, kwargs, result) -> None:
        terms = args[3] if len(args) > 3 else kwargs.get("terms", ())
        self.counts["expalg.construct.terms_in"] += len(terms)
        self.counts["expalg.construct.terms_kept"] += len(args[0].terms)

    def _name_check(self, sid, args, kwargs, result) -> None:
        self.name[sid] = self.name_id(f"verify.{result.name}")

    # -- storage ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"parent": np.array(self.parent, dtype=np.int64),
                "name": np.array(self.name, dtype=np.int64),
                "start": np.array(self.start), "end": np.array(self.end),
                "names": np.array(self.names, dtype=str),
                "counters": np.array([self.counts[c] for c in COUNTERS], dtype=np.int64)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())

    def merge_file(self, path: Path) -> None:
        """Adopt the spans a child process saved; its roots become children
        of the innermost open span here."""
        with np.load(path) as data:
            offset = len(self.start)
            ids = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int64)
            parent = data["parent"]
            parent = np.where(parent < 0, self.stack[-1], parent + offset)
            self.parent.extend(parent.tolist())
            self.name.extend(ids[data["name"]].tolist() if len(ids) else [])
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            for c, v in zip(COUNTERS, data["counters"].tolist()):
                self.counts[c] += v
        path.unlink()

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op calls, self and inclusive seconds by span name, from the spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / ops
            out[f"{name}.self_s"] = self_s[i] / ops
            out[f"{name}_s"] = incl[i] / ops
        return out
