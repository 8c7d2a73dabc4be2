"""Shared helpers for the test suite: reproducible random draws of algebra
elements and parameter records. The draws are the verify battery's own."""

import csv
import functools
import io
import json
import math

import numpy as np

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder import oracle as orc
from susy_ladder.cli import RunConfig
from susy_ladder.errors import PrecisionLoss
from susy_ladder.expalg import LAGUERRE_TOL, ExpoPoly, Term, _wrap
from susy_ladder.params import DiracParams, NRParams, PhysicalParams
from susy_ladder.verify import (CheckResult, random_dirac, random_nr,  # noqa: F401
                                random_phys, random_poly, random_spinor)


def rng_for(tag: int):
    return np.random.default_rng(20121028 + tag)


# -- per-part reference for operator applications -----------------------------
#
# The operator path in expalg accumulates each row in one dict. These helpers
# are the algorithm it replaced, kept as the reference it must match bit for
# bit: every part is its own canonical term tuple, built and merged term by
# term, and a row is the chained + of its parts.


def ref_canonical(terms):
    acc = {}
    for mu, j, k, coeff in terms:
        acc[(mu, j, k)] = acc.get((mu, j, k), 0j) + complex(coeff)
    order = sorted(acc, key=lambda key: (key[0], key[1], key[2] is not None,
                                         0 if key[2] is None else key[2]))
    return tuple(Term(*key, acc[key]) for key in order if acc[key] != 0j)


def ref_differentiate(a, b, terms):
    out = []
    for t in terms:
        p = t.mu * a + t.j
        if p != 0.0:
            out.append(Term(t.mu, t.j - 1, t.k, t.coeff * p))
        beta = 0.0 if t.k is None else b / (a + t.k)
        if beta != 0.0:
            out.append(Term(t.mu, t.j, t.k, -t.coeff * beta))
    return ref_canonical(out)


def ref_scale(terms, c):
    return ref_canonical([Term(mu, j, k, coeff * c) for mu, j, k, coeff in terms])


def ref_mul_laurent(terms, laurent):
    return ref_canonical([Term(mu, j + q.j, k, coeff * q.coeff)
                          for q in laurent for mu, j, k, coeff in terms])


def ref_add(x, y):
    return ref_canonical(x + y)


def ref_apply(a, b, dcoef, potential, columns):
    """Rows of (dcoef d/drho + potential) applied to columns of term tuples.

    dcoef is indexed as the operator stores it (Python complex for MatrixOp);
    a unit multiplier adds f' as it is and a zero one adds nothing."""
    derivs = [ref_differentiate(a, b, f) for f in columns]
    rows = []
    for i, prow in enumerate(potential):
        parts = []
        for j, pot in enumerate(prow):
            c = dcoef[i][j]
            if c == 1:
                parts.append(derivs[j])
            elif c != 0:
                parts.append(ref_scale(derivs[j], c))
            if pot.terms:
                parts.append(ref_mul_laurent(columns[j], pot.terms))
        rows.append(functools.reduce(ref_add, parts, ()))
    return rows


def ref_ladder(a, b, ladder, terms):
    """(±d/drho + W_n)/sqrt(2): f' (negated for creation) plus f W_n, scaled."""
    deriv = ref_differentiate(a, b, terms)
    if ladder.direction == "creation":
        deriv = ref_scale(deriv, -1.0)
    row = ref_add(deriv, ref_mul_laurent(terms, ladder.superpotential.terms))
    return ref_scale(row, 1.0 / math.sqrt(2.0))


def ref_hamiltonian(a, b, potential, terms):
    """-(1/2) f'' + V f."""
    second = ref_differentiate(a, b, ref_differentiate(a, b, terms))
    return ref_add(ref_scale(second, -0.5), ref_mul_laurent(terms, potential.terms))


def bits(terms):
    """Keys and the repr of both coefficient parts, so that -0.0 counts."""
    return [(t.mu, t.j, t.k, repr(t.coeff.real), repr(t.coeff.imag)) for t in terms]


# -- per-poly reference for sampling --------------------------------------------
#
# expalg.eval_rows samples every row in one call, sharing the grid checks and
# the power and decay arrays. This is the per-poly sampler it replaced, kept
# as the reference it must match bit for bit: each poly checks the grid,
# multiplies by the float grid in its Horner steps, and a spinor stacks its
# components' samples.


def ref_eval_array(f, rhos):
    if hasattr(f, "components"):
        return np.stack([ref_eval_array(p, rhos) for p in f.components])
    rhos = np.asarray(rhos, dtype=float)
    if np.any(rhos <= 0):
        raise ValueError("all sample points must be positive")
    groups = {}
    for mu, j, k, coeff in f.terms:
        groups.setdefault((mu, k), []).append((j, coeff))
    total = np.zeros(rhos.shape, dtype=complex)
    with np.errstate(under="ignore"):
        for (mu, k), group in groups.items():
            top, acc = group[-1]
            acc = np.full(rhos.shape, acc)
            for j, coeff in reversed(group[:-1]):
                acc *= rhos if top - j == 1 else rhos ** (top - j)
                acc += coeff
                top = j
            acc *= rhos ** (mu * f.a + top)
            if k is not None:
                acc *= np.exp(-(f.b / (f.a + k)) * rhos)
            total += acc
    return total


# -- reference for the Laguerre norm guard ---------------------------------------
#
# expalg.laguerre_norm2 checks the shape in one loop and takes the departure
# and the largest |coeff| in plain comparisons. This is the version it
# replaced, with max over generators, kept as the reference it must match:
# the same value to the bit, or the same exception and message.


def ref_laguerre_norm2(poly):
    terms = poly.terms
    if not terms:
        raise ValueError("the zero function is not a Laguerre function")
    mu, j0, k, _ = terms[0]
    if k is None:
        raise ValueError("a Laguerre function needs an exponential decay")
    if any((t.mu, t.j, t.k) != (mu, j0 + i, k) for i, t in enumerate(terms)):
        raise ValueError("a Laguerre function has one mu, one decay index "
                         "and consecutive powers")
    a, b = poly.a, poly.b
    p0 = mu * a + j0
    if not p0 > 0:
        raise ValueError(f"lowest power {p0} gives alpha = 2 p0 - 1 <= -1")
    alpha = 2.0 * p0 - 1.0
    m = len(terms) - 1
    two_beta = 2.0 * b / (a + k)
    top = terms[-1].coeff
    expect, worst = top, 0.0
    for i in range(m - 1, -1, -1):
        expect = -expect * ((i + 1) * (alpha + i + 1) / ((m - i) * two_beta))
        worst = max(worst, abs(terms[i].coeff - expect))
    scale = max((abs(t.coeff) for t in terms), default=0.0)
    if worst > LAGUERRE_TOL * scale:
        raise PrecisionLoss(f"coefficients depart from the Laguerre form by "
                            f"{worst / scale:.3e} of the largest "
                            f"(tolerance {LAGUERRE_TOL:.0e})")
    return math.exp(2.0 * math.log(abs(top)) + math.lgamma(m + 1)
                    + math.lgamma(m + alpha + 1) + math.log(2 * m + alpha + 1)
                    - (2 * m + alpha + 2) * math.log(two_beta))


# -- numpy reference for the constant matrices -----------------------------------
#
# dirac keeps its Pauli, alpha, beta and Sigma matrices, and every operator's
# dcoef, as nested tuples of Python complex. These are the complex numpy
# arrays they replaced, built as before, kept as the reference they must
# equal to the bit, -0.0 parts included.


def ref_matrices():
    s0 = np.eye(2, dtype=complex)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    return {"S0": s0, "S1": s1, "S2": s2, "S3": s3,
            "ALPHA1": np.block([[z, s1], [s1, z]]),
            "ALPHA2": np.block([[z, s2], [s2, z]]),
            "ALPHA3": np.block([[z, s3], [s3, z]]),
            "BETA": np.block([[s0, z], [z, -s0]]),
            "SIGMA1": np.block([[s1, z], [z, s1]])}


def ref_dcoefs():
    """{operator name: its dcoef array}, as each operator built it."""
    m = ref_matrices()
    z = np.zeros((2, 2), dtype=complex)
    b_dagger = -m["S0"].copy()
    b_op = -b_dagger.conj().T
    return {"h_operator": -1j * m["S1"], "big_hamiltonian": -1j * m["ALPHA1"],
            "b_dagger": b_dagger, "b_op": b_op,
            "a_dagger": np.block([[b_dagger, z], [z, b_dagger]]),
            "a_op": np.block([[b_op, z], [z, b_op]])}


def ref_multipliers():
    """{operator name: the matrices its potential parts are scaled by}."""
    m = ref_matrices()
    return {"h_operator": [m["S2"], m["S3"]],
            "big_hamiltonian": [m["ALPHA2"], m["ALPHA3"], m["BETA"]],
            "b_dagger": [m["S0"], 1j * m["S1"] - m["S2"], -m["S3"]]}


def hex_matrix(mat):
    """Each entry's real and imaginary parts in float.hex, so that -0.0 counts."""
    rows = mat.tolist() if isinstance(mat, np.ndarray) else mat
    return [[(complex(v).real.hex(), complex(v).imag.hex()) for v in row] for row in rows]


# -- one record of every record type ----------------------------------------------


def record_samples():
    """One record of each record type in the package, with both ExpoPoly and
    SpinorFn also as built past their constructors."""
    fig2, fig3 = NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1)
    poly = ExpoPoly(1.3, 0.7, ((1, 0, 0, 1.0 - 2j), (0, -1, None, 0.5)))
    chain = dc.eigenfunction_chain(fig3, 2, "c")
    return [fig2, fig3,
            PhysicalParams(hbar=1.0, m=1.0, c=1.0, e=1.0, k=2.0, pz=1.0, ell=1.5),
            poly, _wrap(1.3, 0.7, poly.terms), ExpoPoly.zero(1.3, 0.7),
            nr.ladder(fig2, 2, "creation"),
            chain, dc.SpinorFn(chain.components[:2]),
            dc.b_dagger(fig3, 1),
            RunConfig(mode="fig3", a=1.0, families=("a", "c"), out="t.csv"),
            CheckResult("nr-orthogonality", True, "max relative off-diagonal 1e-13, tol 1e-09"),
            orc.RadialGrid(0.01, 10.0, 128), orc.LogGrid(100.0, 1024),
            orc.ResidualReport(l2_residual=1e-9, l2_norm=0.5)]


# -- reference renderer -------------------------------------------------------------
#
# The CLI formats each column once and builds every row with one %-template.
# This is the renderer it replaced, kept as the reference it must match byte
# for byte: every cell through _cell, rows through csv.writer, and JSON
# through _json_value.


def ref_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def ref_render_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(table))
    for row in zip(*table.values()):
        writer.writerow([ref_cell(v) for v in row])
    return buf.getvalue()


def ref_json_value(value):
    if isinstance(value, dict):
        return "{" + ",".join(f"{ref_json_value(k)}:{ref_json_value(v)}"
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(ref_json_value(v) for v in value) + "]"
    if value is None or isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    return ref_cell(value)


def ref_render_json(table, meta):
    doc = {"meta": meta, "data": {"columns": list(table),
                                  "rows": [list(r) for r in zip(*table.values())]}}
    return ref_json_value(doc) + "\n"
