"""Shared helpers for the test suite: reproducible random draws of algebra
elements and parameter records. The draws are the verify battery's own."""

import csv
import functools
import io
import json
import math

import mpmath as mp
import numpy as np

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder import oracle as orc
from susy_ladder.cli import RunConfig
from susy_ladder.errors import GridTooCoarse, PrecisionLoss
from susy_ladder.expalg import LAGUERRE_TOL, ExpoPoly, Term, _wrap, laguerre_columns
from susy_ladder.params import DiracParams, NRParams, PhysicalParams, default_rho_max
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
    for j, k, coeff in terms:
        acc[(j, k)] = acc.get((j, k), 0j) + complex(coeff)
    order = sorted(acc, key=lambda key: (key[0], key[1] is not None,
                                         0 if key[1] is None else key[1]))
    return tuple(Term(*key, acc[key]) for key in order if acc[key] != 0j)


def ref_differentiate(a, b, terms):
    out = []
    for j, k, coeff in terms:
        p = j if k is None else a + j
        if p != 0.0:
            out.append(Term(j - 1, k, coeff * p))
        beta = 0.0 if k is None else b / (a + k)
        if beta != 0.0:
            out.append(Term(j, k, -coeff * beta))
    return ref_canonical(out)


def ref_scale(terms, c):
    return ref_canonical([Term(j, k, coeff * c) for j, k, coeff in terms])


def ref_mul_laurent(terms, laurent):
    return ref_canonical([Term(j + qj, k, coeff * qcoeff)
                          for qj, _, qcoeff in laurent for j, k, coeff in terms])


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
    return [(j, k, repr(coeff.real), repr(coeff.imag)) for j, k, coeff in terms]


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
    for j, k, coeff in f.terms:
        groups.setdefault(k, []).append((j, coeff))
    total = np.zeros(rhos.shape, dtype=complex)
    with np.errstate(under="ignore"):
        for k, group in groups.items():
            top, acc = group[-1]
            acc = np.full(rhos.shape, acc)
            for j, coeff in reversed(group[:-1]):
                acc *= rhos if top - j == 1 else rhos ** (top - j)
                acc += coeff
                top = j
            acc *= rhos ** (top if k is None else f.a + top)
            if k is not None:
                acc *= np.exp(-(f.b / (f.a + k)) * rhos)
            total += acc
    return total


# -- per-column reference for the Dirac eigenfunction table ----------------------
#
# The CLI samples every density column of a Dirac eigenfunction table in one
# expalg.laguerre_columns call. This is the per-column sampler it replaced,
# kept as the reference it must match bit for bit: each column's spinor is
# sampled in a call of its own. Both build the chains at the b = 1 twin
# (a, 1, d0/b, mbar/b) and take a density as b times the twin's at b rho.


def ref_dirac_densities(params, xs, families, levels):
    """{column name: density samples at xs} of params, one laguerre_columns
    call per column."""
    b = params.b
    twin = DiracParams(params.a, 1.0, params.d0 / b, params.mbar / b)
    table = {}
    for fam in families:
        for n in range(levels):
            name = f"density_{fam}{n}"
            chain = dc.eigenfunction_chain(twin, n, fam)
            density = [0.0] * len(xs)
            for amp, f in laguerre_columns({name: chain.components}, [b * x for x in xs])[name]:
                weight = abs(amp) ** 2 * b
                density = [d + weight * v * v for d, v in zip(density, f)]
            table[name] = density
    return table


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
    j0, k, _ = terms[0]
    if k is None:
        raise ValueError("a Laguerre function needs an exponential decay")
    if any((tj, tk) != (j0 + i, k) for i, (tj, tk, _) in enumerate(terms)):
        raise ValueError("a Laguerre function has one decay index "
                         "and consecutive powers")
    a, b = poly.a, poly.b
    p0 = a + j0
    alpha = 2.0 * p0 - 1.0
    if not alpha > -1.0:
        raise ValueError(f"lowest power p0 = {p0} gives alpha = 2 p0 - 1 = {alpha}, "
                         "not above -1")
    m = len(terms) - 1
    two_beta = 2.0 * b / (a + k)
    if not all(math.isfinite(abs(coeff)) for *_, coeff in terms):
        raise PrecisionLoss("a coefficient is not finite")
    *_, top = terms[-1]
    expect, worst = top, 0.0
    for i in range(m - 1, -1, -1):
        expect = -expect * ((i + 1) * (alpha + i + 1) / ((m - i) * two_beta))
        *_, coeff = terms[i]
        worst = max(worst, abs(coeff - expect))
    if not math.isfinite(abs(expect)):
        raise PrecisionLoss("the closed form run down from the top coefficient "
                            "leaves the float range")
    scale = max((abs(coeff) for *_, coeff in terms), default=0.0)
    if worst > LAGUERRE_TOL * scale:
        raise PrecisionLoss(f"coefficients depart from the Laguerre form by "
                            f"{worst / scale:.3e} of the largest "
                            f"(tolerance {LAGUERRE_TOL:.0e})")
    return math.exp(2.0 * math.log(abs(top)) + math.lgamma(m + 1)
                    + math.lgamma(m + alpha + 1) + math.log(2 * m + alpha + 1)
                    - (2 * m + alpha + 2) * math.log(two_beta))


# -- numpy reference for the constant matrices -----------------------------------
#
# dirac keeps the constant matrices its operators take, and every operator's
# dcoef, as nested tuples of Python complex. These are the complex numpy
# arrays they replaced, built as before, kept as the reference they must
# equal to the bit, -0.0 parts included. The other Dirac matrices serve the
# tests alone.


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


def hex_matrix(mat):
    """Each entry's real and imaginary parts in float.hex, so that -0.0 counts."""
    rows = mat.tolist() if isinstance(mat, np.ndarray) else mat
    return [[(complex(v).real.hex(), complex(v).imag.hex()) for v in row] for row in rows]


# -- sampled reference for the matrix superpotential identity --------------------
#
# verify's xi-superpotential-identity row checks W Xi = Xi' in the algebra,
# column by column: a_dagger = -d/drho + W annihilates every column of Xi
# (verify.kernel_residual). This is the pointwise form it replaced,
# W(rho) = Xi'(rho) Xi(rho)^(-1) through a numpy inverse, kept so that the
# paper's identity stays checked apart from apply_operator: W is sampled
# entry by entry with ExpoPoly.eval.


def potential_at(op, rho):
    """The operator's potential matrix at rho, each entry by ExpoPoly.eval."""
    return np.array([[p.eval(rho) for p in row] for row in op.potential])


def spinor_at(f, rho):
    """The spinor's components at rho, each by ExpoPoly.eval."""
    return np.array([p.eval(rho) for p in f.components])


def ref_superpotential_matrix_residual(params, n, rho_samples):
    """Max Frobenius mismatch between a_dagger(params, n)'s potential W(rho)
    and Xi'(rho) Xi(rho)^(-1), with the four level-n family eigenvectors as
    the columns of Xi. inf where Xi's condition number passes 1e12, since
    the inverse then checks nothing."""
    cols = [dc.eigenvector(params, n, fam)[0] for fam in dc.FAMILIES]
    dcols = [dc.SpinorFn(tuple(p.differentiate() for p in col.components)) for col in cols]
    wop = dc.a_dagger(params, n)
    worst = 0.0
    for rho in rho_samples:
        xi = np.stack([spinor_at(col, rho) for col in cols], axis=1)
        if np.linalg.cond(xi) > 1e12:
            return math.inf
        dxi = np.stack([spinor_at(col, rho) for col in dcols], axis=1)
        resid = potential_at(wop, rho) - dxi @ np.linalg.inv(xi)
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


# -- fourth-order stencil reference for the scalar problem --------------------------


def residual_scalar(f, energy, params, grid):
    """Residual of (-1/2) f'' + V0 f - E f using the five-point second
    derivative (fourth order), restricted to the stencil-valid interior."""
    f = np.asarray(f)
    h = grid.h
    pts = grid.points
    inner = slice(2, grid.n_points - 2)
    d2 = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
    v = params.a * (params.a + 1) / (2.0 * pts[inner] ** 2) - params.b / pts[inner]
    r = -0.5 * d2 + (v - energy) * f[inner]
    return orc._l2_report(r, f[inner], h)


# -- finite-difference reference for the oracle's channel solves -------------------
#
# The bare Coulomb channel -u'' + [(k^2 - 1/4)/rho^2 - 2b/rho] u = eps u on
# an oracle.LogGrid: u = rho^(1/2) v on x = ln rho gives
# -v'' + [k^2 - 2b rho] v = eps rho^2 v, and scaling by w = rho v makes it one
# symmetric tridiagonal problem in eps. The first row takes the ghost value
# v_-1 = e^(-kh) v_0 of the regular solution v ~ e^(kx); the last row is
# Dirichlet. The imposed regular solution leaves an error of order h^2, so
# the Richardson value (4 fine - coarse)/3 at half the step (2N - 1 points)
# removes it. Below k = 0 the ghost row does not pin rho^(k+1/2) (Weyl's
# limit-circle case), so the reference solves channel k = a - 1/2 only where
# k >= 0. Every solve bisects on oracle.eigh_tridiagonal, the bundled LAPACK.

# The largest absolute move of a value on halving the step (in b^2 units at
# a b = 1 twin): the reference's error budget.
RICHARDSON_SHIFT = 1e-4
# Absolute tolerance on eps for the bisection. dstebz's default (ABSTOL <= 0,
# scipy's tol=0) is machine epsilon times ||T||_1, and a log grid's diagonal
# reaches 2 / (h rho_min)^2, so that default is wider than any window: at fig3
# on 2048 points it puts level 0's eps = -4.000 of the k = 1/2 channel at -3.193.
BISECTION_TOL = 1e-12
# LogGrid points of the scalar and the scan reference.
REF_NR_POINTS = 1024
REF_SCAN_POINTS = 2048


def ref_channel_tridiag(k, b, grid):
    """(d, e) of channel k on grid."""
    rho, h = grid.points, grid.h
    d = (2.0 / h ** 2 + k * k - 2.0 * b * rho) / rho ** 2
    d[0] -= math.exp(-k * h) / (h * rho[0]) ** 2
    return d, -1.0 / (h ** 2 * rho[:-1] * rho[1:])


def ref_channel_eigs(k, b, grid, window):
    """Channel k's unrefined eps inside window, ascending."""
    d, e = ref_channel_tridiag(k, b, grid)
    return orc.eigh_tridiagonal(d, e, eigvals_only=True, tol=BISECTION_TOL, select="v",
                                select_range=window)


def ref_refined(solve, grid):
    """The Richardson values of solve(grid) and solve at half the step.
    Raises GridTooCoarse when the two differ in count or any value moves by
    more than RICHARDSON_SHIFT."""
    coarse = np.asarray(solve(grid))
    fine = np.asarray(solve(orc.LogGrid(grid.rho_max, 2 * grid.n_points - 1)))
    if len(fine) != len(coarse):
        raise GridTooCoarse(
            f"refinement changed the eigenvalue count from {len(coarse)} to {len(fine)}")
    shift = float(np.max(np.abs(fine - coarse), initial=0.0))
    if shift > RICHARDSON_SHIFT:
        raise GridTooCoarse(f"an eigenvalue moved by {shift:.3e} on refinement")
    return [float(x) for x in (4.0 * fine - coarse) / 3.0]


def ref_window_eigs(k, b, window, grid, scale=1.0):
    """The Richardson values of scale * eps for channel k's eps inside
    window / scale, so the shift is taken on the values returned."""
    lo, hi = window
    return ref_refined(lambda g: scale * ref_channel_eigs(k, b, g, (lo / scale, hi / scale)),
                       grid)


def ref_scalar_levels(params, window, points=REF_NR_POINTS):
    """The scalar levels epsilon inside a window in epsilon, on a LogGrid to
    default_rho_max(params, 3): channel k = a + 1/2 with eps = 2 epsilon."""
    grid = orc.LogGrid(default_rho_max(params, 3), points)
    return ref_window_eigs(params.a + 0.5, params.b, window, grid, 0.5)


def ref_scan_levels(params, window, points=REF_SCAN_POINTS):
    """The squared operator's eps inside a window in eps, each channel
    refined on its own, channel k = a - 1/2 only where k >= 0."""
    grid = orc.LogGrid(default_rho_max(params, 3), points)
    return sorted(x for k in (params.a - 0.5, params.a + 0.5) if k >= 0
                  for x in ref_window_eigs(k, params.b, window, grid))


# -- 40-digit reference for the Dirac chains -----------------------------------------
#
# dirac.eigenfunction_chain lowers a kernel spinor through b_op(n-1), ...,
# b_op(0) in floats. This is the same lowering in mpmath, from the float
# inputs, kept apart from the package's closed forms: d_n from its square
# root, d_(k+1) - d_k as the plain difference of two roots (which at this
# precision costs nothing a float could hold), and
# b_op(k) = d/drho + [[w_k, 0], [i (d_(k+1) - d_k), w_(k+1)]].


def ref_exact_chain(params, n, fam, dps=40):
    """The four components of eigenfunction_chain(params, n, fam), each as
    {(j, k): mpc}, lowered in dps digits."""
    with mp.workdps(dps):
        a, b, d0, mbar = (mp.mpf(x) for x in (params.a, params.b, params.d0, params.mbar))
        sign = -1 if params.d0 < 0 else 1

        def d(m):
            return sign * mp.sqrt(d0 ** 2 + m * (2 * a + m) * b ** 2 / (a ** 2 * (a + m) ** 2))

        def add(acc, key, value):
            acc[key] = acc.get(key, 0) + value

        an = a + n
        if fam in ("a", "b"):
            upper = [{(n, n): mp.mpc(1)}, {}]
        else:
            c = an ** 2 * (an + 1) ** 2 * (d(n + 1) - d(n)) / b ** 2
            upper = [{(n, n + 1): 1j * c, (n + 1, n + 1): -1j * c * b / (an * (an + 1))},
                     {(n + 1, n + 1): mp.mpc(1)}]
        for k in range(n - 1, -1, -1):
            rows = []
            for i, f in enumerate(upper):
                # f' + w_(k+i) f, with w_m = (a+m)/rho - b/(a+m)
                acc, am = {}, a + k + i
                for (j, kk), coeff in f.items():
                    add(acc, (j - 1, kk), coeff * (a + j + am))
                    add(acc, (j, kk), -coeff * (b / (a + kk) + b / am))
                rows.append(acc)
            for key, coeff in upper[0].items():
                add(rows[1], key, 1j * (d(k + 1) - d(k)) * coeff)
            upper = rows
        level = d(n) if fam in ("a", "b") else d(n + 1)
        s = mp.sqrt(mbar ** 2 + level ** 2)
        ratio = {"a": level / (s + mbar), "b": -(s + mbar) / level,
                 "c": -level / (s + mbar), "d": (s + mbar) / level}[fam]
        return upper + [{key: ratio * coeff for key, coeff in f.items()} for f in upper]


def exact_departure(poly, exact):
    """Largest |coefficient - exact coefficient| of a float poly, over the
    largest |exact coefficient|; 0.0 when both are zero."""
    got = {(j, k): coeff for j, k, coeff in poly.terms}
    if not got and not exact:
        return 0.0
    worst = max(abs(mp.mpc(got.get(key, 0)) - exact.get(key, 0)) for key in got.keys() | exact)
    return float(worst / max(abs(coeff) for coeff in exact.values()))


# -- one record of every record type ----------------------------------------------


def record_samples():
    """One record of each record type in the package, with both ExpoPoly and
    SpinorFn also as built past their constructors."""
    fig2, fig3 = NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1)
    poly = ExpoPoly(1.3, 0.7, ((0, 0, 1.0 - 2j), (-1, None, 0.5)))
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


# -- generic-path reference for the closed forms -----------------------------------
#
# nonrel and dirac build their superpotentials, potentials, operators and
# kernel spinors straight in canonical term order (ExpoPoly.ordered), write
# each operator's potential entry by entry, sharing each scaled poly, and
# keep their constant matrices as module constants. These are the
# compositions they replaced, kept as the reference they must match bit for
# bit: every poly merged from ExpoPoly.term parts by + or ExpoPoly.sum, h_n's
# and H_n's potential entries each scaled and summed on its own from the
# Pauli and alpha/beta multipliers, and every constant matrix rebuilt by
# _entrywise on each call.


def ref_laurent(params, pairs):
    a, b = params.a, params.b
    return ExpoPoly.sum(a, b, [ExpoPoly.term(a, b, coeff, j=j) for coeff, j in pairs])


def ref_superpotential(params, n):
    an = params.a + n
    return ref_laurent(params, [(an, -1), (-params.b / an, 0)])


def ref_potential(params, n):
    an = params.a + n
    return ref_laurent(params, [(an * (an + 1) / 2.0, -2), (-params.b, -1)])


def ref_const(params, value):
    return ExpoPoly.term(params.a, params.b, value)


def ref_w_coef(params, n):
    an = params.a + n
    return ExpoPoly.term(params.a, params.b, an, j=-1) + ref_const(params, -params.b / an)


def ref_pot_matrix(params, parts, size):
    """Sum of poly times ref_matrices()[name] over the (poly, name) parts."""
    a, b = params.a, params.b
    zero = ExpoPoly.zero(a, b)
    parts = [(poly, ref_matrices()[name].tolist()) for poly, name in parts]
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            scaled = [poly.scale(mat[i][j]) for poly, mat in parts if mat[i][j] != 0]
            if len(scaled) > 1:
                row.append(ExpoPoly.sum(a, b, scaled))
            else:
                row.append(scaled[0] if scaled else zero)
        rows.append(tuple(row))
    return tuple(rows)


def ref_h_operator(params, n):
    pot = ref_pot_matrix(params, [(ref_w_coef(params, n), "S2"),
                                  (ref_const(params, dc.dn(params, n)), "S3")], 2)
    return dc.MatrixOp(dc._entrywise(lambda x: -1j * x, dc.S1), pot)


def ref_big_hamiltonian(params, n):
    pot = ref_pot_matrix(params, [(ref_w_coef(params, n), "ALPHA2"),
                                  (ref_const(params, dc.dn(params, n)), "ALPHA3"),
                                  (ref_const(params, params.mbar), "BETA")], 4)
    return dc.MatrixOp(dc._entrywise(lambda x: -1j * x, dc.ALPHA1), pot)


def ref_xi_coef(params, n):
    an = params.a + n
    return (2 * an + 1) / (dc.dn(params, n + 1) + dc.dn(params, n))


def ref_b_dagger(params, n):
    a, b = params.a, params.b
    an = a + n
    delta = (b / (an * (an + 1))) ** 2 * ref_xi_coef(params, n)
    pot = ((ref_w_coef(params, n), ref_const(params, -1j * delta)),
           (ExpoPoly.zero(a, b), ref_w_coef(params, n + 1)))
    return dc.MatrixOp(dc._entrywise(lambda x: -x, dc.S0), pot)


def ref_b_op(params, n):
    return dc._adjoint(ref_b_dagger(params, n))


def ref_kernel_chi(params, n):
    a, b = params.a, params.b
    return dc.SpinorFn((ExpoPoly.term(a, b, 1.0, j=n, k=n), ExpoPoly.zero(a, b)))


def ref_kernel_xi(params, n):
    a, b = params.a, params.b
    an = a + n
    c = ref_xi_coef(params, n)
    comp0 = (ExpoPoly.term(a, b, 1j * c, j=n, k=n + 1)
             + ExpoPoly.term(a, b, -1j * c * b / (an * (an + 1)), j=n + 1, k=n + 1))
    comp1 = ExpoPoly.term(a, b, 1.0, j=n + 1, k=n + 1)
    return dc.SpinorFn((comp0, comp1))


def ref_kernel_residual(p, n):
    """verify.kernel_residual as built from four eigenvector calls: b_dagger
    on chi, xi and each family eigenvector's lower half."""
    bd = dc.b_dagger(p, n)
    halves = [dc.kernel_chi(p, n), dc.kernel_xi(p, n)]
    for fam in dc.FAMILIES:
        vec, _ = dc.eigenvector(p, n, fam)
        halves.append(dc.SpinorFn(vec.components[2:]))
    return max(bd.apply(half).max_abs_coeff() for half in halves)


def hex_poly(poly):
    """Keys and float.hex of both coefficient parts of every term."""
    return [(j, k, coeff.real.hex(), coeff.imag.hex()) for j, k, coeff in poly.terms]


def hex_operator(op):
    return ([[(c.real.hex(), c.imag.hex()) for c in row] for row in op.dcoef],
            [[hex_poly(p) for p in row] for row in op.potential])
