"""One-shot verification battery aggregating the module invariants.

Each check returns a CheckResult; the CLI renders them and maps any failure
to a nonzero exit status. Randomized checks draw from a fixed seed so runs
are reproducible byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from . import dirac as dc
from . import nonrel as nr
from . import oracle as orc
from .errors import GridTooCoarse, TailNotDecayed
from .expalg import ExpoPoly, eval_rows
from .params import DiracParams, NRParams, PhysicalParams, default_rho_max
from .record import Record, set_field

SEED = 20121028
# Bound of the eight symbolic rows, whose residuals vanish in exact
# arithmetic: the largest coefficient left (relative to the chain's largest
# in the two eigen-equation rows).
SYMBOLIC_TOL = 1e-11
# LogGrid points of the scalar check, whose refinement re-solves at 2N - 1,
# and of the quadrature check.
# The solve costs about 6 us and 150 bytes per point (0.38 s and 11 MB at
# 65536), and past 8192 points the graded matrix's roundoff outgrows the
# step error: at fig2 the error is 3.7e-13 at 8192, 3.2e-11 at 65536 and
# 2.6e-10 at 262144 points.
NR_POINTS = 1024
SCAN_POINTS = 2048  # LogGrid points of the Dirac scan; refinement re-solves at 2N - 1


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)


def worst_of(readings: list[float]) -> float:
    """The largest of a row's readings, or NaN if any reading is NaN, so a
    reading that overflowed fails its row instead of dropping out of it."""
    return float(np.max(readings))


def bounded_row(name: str, label: str, readings: list[float], tol: float, tol_format: str = ".0e",
                note: str = "") -> CheckResult:
    """The row that passes when its worst reading is at most tol (never when NaN)."""
    worst = worst_of(readings)
    return CheckResult(name, worst <= tol,
                       f"{label} {worst:.3e} (tol {tol:{tol_format}}){note}")


def random_poly(rng, a: float, b: float, n_terms: int = 3) -> ExpoPoly:
    return ExpoPoly.sum(a, b, [
        ExpoPoly.term(a, b, complex(rng.standard_normal(), rng.standard_normal()),
                      j=int(rng.integers(0, 4)), k=int(rng.integers(0, 4)))
        for _ in range(n_terms)])


def random_spinor(rng, a: float, b: float, size: int) -> dc.SpinorFn:
    return dc.SpinorFn(tuple(random_poly(rng, a, b) for _ in range(size)))


def random_nr(rng) -> NRParams:
    return NRParams(a=float(rng.uniform(0.4, 2.5)), b=float(rng.uniform(0.4, 2.5)))


def random_dirac(rng) -> DiracParams:
    d0 = float(rng.uniform(0.1, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return DiracParams(a=float(rng.uniform(0.5, 2.0)),
                       b=float(rng.uniform(0.4, 2.0)),
                       d0=d0, mbar=float(rng.uniform(0.0, 1.5)))


def random_phys(rng) -> PhysicalParams:
    """Physical draws admissible for both hierarchies (lam/hbar > 1/2, pz*k > 0)."""
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    hbar = float(rng.uniform(0.5, 2.0))
    return PhysicalParams(
        hbar=hbar, m=float(rng.uniform(0.5, 2.0)), c=float(rng.uniform(0.5, 2.0)),
        e=float(rng.uniform(0.5, 2.0)),
        k=sign * float(rng.uniform(0.7, 2.0)) * hbar,
        pz=sign * float(rng.uniform(0.2, 2.0)),
        ell=float(rng.uniform(-2.0, 2.0)))


def check_riccati() -> CheckResult:
    rng = np.random.default_rng(SEED)
    readings = [nr.riccati_residual(p, n).max_abs_coeff()
                for p in (random_nr(rng) for _ in range(8)) for n in range(1, 5)]
    return bounded_row("nr-riccati-residual", "max coefficient", readings, SYMBOLIC_TOL, ".1e")


def check_nr_factorization() -> CheckResult:
    rng = np.random.default_rng(SEED + 1)
    readings = []
    for _ in range(6):
        p = random_nr(rng)
        f = random_poly(rng, p.a, p.b)
        h_lo = nr.apply_hamiltonian(p, 0, f)
        for n in range(1, 5):
            up = nr.ladder(p, n, "creation")
            down = nr.ladder(p, n, "annihilation")
            eps = nr.factorization_energy(p, n)
            h_hi = nr.apply_hamiltonian(p, n, f)
            r1 = h_lo - down.apply(up.apply(f)) - f.scale(eps)
            r2 = h_hi - up.apply(down.apply(f)) - f.scale(eps)
            readings += [r1.max_abs_coeff(), r2.max_abs_coeff()]
            # level n's H_n f is the next iteration's H_(n-1) f
            h_lo = h_hi
    return bounded_row("nr-factorization", "max coefficient", readings, SYMBOLIC_TOL, ".1e")


def check_nr_intertwining() -> CheckResult:
    rng = np.random.default_rng(SEED + 2)
    readings = []
    for _ in range(6):
        p = random_nr(rng)
        f = random_poly(rng, p.a, p.b)
        for n in range(0, 4):
            up = nr.ladder(p, n + 1, "creation")
            r = (nr.apply_hamiltonian(p, n + 1, up.apply(f))
                 - up.apply(nr.apply_hamiltonian(p, n, f)))
            readings.append(r.max_abs_coeff())
    return bounded_row("nr-intertwining", "max coefficient", readings, SYMBOLIC_TOL, ".1e")


def eigen_residual(residual, chain, value: float) -> float:
    """The largest coefficient of residual = H chain - value chain, relative
    to max(1, |value|) max(1, the chain's largest coefficient): each term of
    value chain is as large as |value| times the chain's, so an eigenvalue
    far from 1 does not shift the roundoff the bound takes."""
    return residual.max_abs_coeff() / (max(1.0, abs(value)) * max(1.0, chain.max_abs_coeff()))


def check_nr_eigen(params: NRParams) -> CheckResult:
    """Levels 0..10: each chain solves its eigen-equation and keeps all n+1 terms."""
    readings, short = [], []
    for n in range(0, 11):
        f = nr.eigenfunction(params, n)
        if len(f.terms) != n + 1:
            short.append(n)
        energy = nr.spectrum_radial(params, n)
        r = nr.apply_hamiltonian(params, 0, f) - f.scale(energy)
        readings.append(eigen_residual(r, f, energy))
    worst = worst_of(readings)
    detail = f"levels 0..10, max relative coefficient {worst:.3e}"
    if short:
        detail += f", levels {short} lack n+1 terms"
    return CheckResult("nr-eigen-equations", worst <= SYMBOLIC_TOL and not short, detail)


def check_nr_nodes(params: NRParams) -> CheckResult:
    counts = [len(nr.eigenfunction_nodes(params, n)) for n in range(4)]
    ok = counts == [0, 1, 2, 3]
    return CheckResult("nr-node-counts", ok, f"interior zeros {counts} expected [0, 1, 2, 3]")


def check_nr_orthogonality(params: NRParams) -> CheckResult:
    fs = [nr.eigenfunction(params, n) for n in range(5)]
    gram = [[f.inner_product(g).real for g in fs] for f in fs]
    # each norm on its own: the product of two diagonal entries overflows
    norms = [math.sqrt(gram[i][i]) for i in range(5)]
    readings = [abs(gram[i][j]) / (norms[i] * norms[j])
                for i in range(5) for j in range(5) if i != j]
    return bounded_row("nr-orthogonality", "max relative off-diagonal", readings, 1e-9)


def oracle_row(name: str, solve, params, eps: list[float], counts: tuple[int, int, int],
               points: int, tol: float) -> CheckResult:
    """The values solve finds from 1.05 eps[0] to halfway between eps[2] and
    eps[3] on a LogGrid of points to default_rho_max(params, 3), each eps[n]
    counts[n] times; another count or a shift past RICHARDSON_SHIFT fails."""
    lo, hi = 1.05 * eps[0], 0.5 * (eps[2] + eps[3])
    try:
        found = solve(params, (lo, hi), orc.LogGrid(default_rho_max(params, 3), points))
    except GridTooCoarse as exc:
        return CheckResult(name, False, f"grid too coarse: {exc}")
    expect = [x for x, count in zip(eps, counts) for _ in range(count)]
    detail = "window (%.3e, %.3e), levels 0..2 with multiplicities %d,%d,%d: " % (lo, hi, *counts)
    if len(found) != len(expect):
        return CheckResult(name, False,
                           f"{detail}found {len(found)} values, expected {len(expect)}")
    note = ", level 0 is left to the algebraic rows (a < 1/2)" if not counts[0] else ""
    return bounded_row(name, detail + "max |fd - analytic|",
                       [abs(x - y) for x, y in zip(found, expect)], tol, note=note)


def check_nr_fd(params: NRParams) -> CheckResult:
    """The oracle's scalar levels epsilon against spectrum_radial (oracle_row)."""
    return oracle_row("nr-fd-eigenvalues", orc.fd_schrodinger_eigs, params,
                      [nr.spectrum_radial(params, n) for n in range(4)], (1, 1, 1),
                      NR_POINTS, 1e-5)


def kernel_residual(p: DiracParams, n: int) -> float:
    """Largest coefficient of b_dagger(p, n) on both kernel spinors and, so,
    of a_dagger(p, n) on all four family eigenvectors.

    a_dagger is b_dagger on each diagonal block, and applying it equals
    applying b_dagger to each 2-component half, bit for bit. A family
    eigenvector's upper half is its kernel spinor, chi or xi, or zero, so
    b_dagger is applied to the 6 distinct halves of dirac.eigenvector_halves
    instead of 2 + 4 x 2, with the same largest coefficient, bit for bit.
    """
    bd = dc.b_dagger(p, n)
    return worst_of([bd.apply(half).max_abs_coeff() for half in dc.eigenvector_halves(p, n)])


def check_dirac_kernels() -> CheckResult:
    rng = np.random.default_rng(SEED + 3)
    readings = [kernel_residual(p, n)
                for p in (random_dirac(rng) for _ in range(8)) for n in range(0, 5)]
    return bounded_row("dirac-kernel-annihilation", "max coefficient", readings,
                       SYMBOLIC_TOL, ".1e")


def _apply_halves(op: dc.MatrixOp, f: dc.SpinorFn) -> dc.SpinorFn:
    """A 2x2 op applied to each half of a 4-spinor: for op = b_dagger(p, n)
    this is a_dagger(p, n).apply(f), bit for bit."""
    upper, lower = (op.apply(dc.SpinorFn(f.components[i:i + 2])) for i in (0, 2))
    return dc.SpinorFn(upper.components + lower.components)


def intertwining_residual(p: DiracParams, f2: dc.SpinorFn, f4: dc.SpinorFn) -> float:
    """Largest coefficient of h_(n+1) b_dagger f2 - b_dagger h_n f2 and of
    H_(n+1) a_dagger f4 - a_dagger H_n f4 over levels n = 0..3, with a_dagger
    applied as b_dagger on each half of f4 and of H_n f4 (see _apply_halves)."""
    readings = []
    h_lo, big_lo = dc.h_operator(p, 0), dc.big_hamiltonian(p, 0)
    for n in range(0, 4):
        bd = dc.b_dagger(p, n)
        h_hi, big_hi = dc.h_operator(p, n + 1), dc.big_hamiltonian(p, n + 1)
        r2 = h_hi.apply(bd.apply(f2)) - bd.apply(h_lo.apply(f2))
        r4 = big_hi.apply(_apply_halves(bd, f4)) - _apply_halves(bd, big_lo.apply(f4))
        readings += [r2.max_abs_coeff(), r4.max_abs_coeff()]
        # level n+1's operators are the next iteration's level-n ones
        h_lo, big_lo = h_hi, big_hi
    return worst_of(readings)


def check_dirac_intertwining() -> CheckResult:
    rng = np.random.default_rng(SEED + 4)
    readings = []
    for _ in range(5):
        p = random_dirac(rng)
        f2 = random_spinor(rng, p.a, p.b, 2)
        f4 = random_spinor(rng, p.a, p.b, 4)
        readings.append(intertwining_residual(p, f2, f4))
    return bounded_row("dirac-intertwining", "max coefficient", readings, SYMBOLIC_TOL, ".1e")


def check_dirac_eigen(params: DiracParams) -> CheckResult:
    h0 = dc.big_hamiltonian(params, 0)
    readings = []
    for n in range(0, 4):
        for fam in dc.FAMILIES:
            chain = dc.eigenfunction_chain(params, n, fam)
            value = dc.family_eigenvalue(params, n, fam)
            r = h0.apply(chain) - chain.scale(value)
            readings.append(eigen_residual(r, chain, value))
    worst = worst_of(readings)
    return CheckResult("dirac-eigen-equations", worst <= SYMBOLIC_TOL,
                       f"four families, levels 0..3, max relative coefficient {worst:.3e}")


def check_degeneracy(params: DiracParams) -> CheckResult:
    ok = all(dc.family_eigenvalue(params, n, "c") == dc.family_eigenvalue(params, n + 1, "a")
             and dc.family_eigenvalue(params, n, "d") == dc.family_eigenvalue(params, n + 1, "b")
             for n in range(0, 5))
    return CheckResult("dirac-degeneracy-ladder", ok,
                       "family c level n matches family a level n+1 exactly (and d/b)")


def check_spectrum_identity() -> CheckResult:
    rng = np.random.default_rng(SEED + 5)
    readings = []
    for _ in range(50):
        phys = random_phys(rng)
        p = phys.to_dirac()
        for n in range(0, 6):
            for sign in (1, -1):
                closed = dc.spectrum_dirac(phys, n, sign)
                via_dn = sign * phys.c * phys.hbar * dc.family_eigenvalue(p, n, "a")
                readings.append(abs(closed - via_dn) / abs(closed))
        pn = phys.to_nr()
        for n in range(0, 6):
            direct = nr.spectrum_physical(phys, n)
            via_d = (phys.hbar ** 2 / phys.m) * nr.spectrum_radial(pn, n) \
                + phys.pz ** 2 / (2 * phys.m)
            readings.append(abs(direct - via_d) / abs(direct))
    return bounded_row("spectrum-identities", "max relative mismatch", readings, 1e-12)


def check_xi_superpotential(params: DiracParams) -> CheckResult:
    """W Xi = Xi' at levels 0 and 1, with Xi the four family eigenvectors as
    columns: each column is annihilated by a_dagger = -d/drho + W, which
    kernel_residual checks in the algebra."""
    return bounded_row("xi-superpotential-identity", "max coefficient",
                       [kernel_residual(params, n) for n in (0, 1)], SYMBOLIC_TOL, ".1e")


def check_dirac_scan(params: DiracParams) -> CheckResult:
    """The scan's eps = E^2 - C against the Coulomb levels -b^2/(a+n)^2
    (oracle_row): levels 0, 1 and 2 come once, twice and twice, and below
    a = 1/2, where the scan skips channel k = a - 1/2, 0, 1 and 1 times."""
    return oracle_row("dirac-fd-scan", orc.dirac_spectrum_scan, params,
                      [-(params.b / (params.a + n)) ** 2 for n in range(4)],
                      (1, 2, 2) if params.a >= 0.5 else (0, 1, 1), SCAN_POINTS, 1e-3)


def check_gamma_vs_quadrature(params: NRParams) -> CheckResult:
    grid = orc.LogGrid(default_rho_max(params, 3), NR_POINTS)
    fs = [nr.eigenfunction(params, n) for n in range(3)]
    samples = eval_rows(fs, grid.points)
    exact = [[f.inner_product(g) for g in fs] for f in fs]
    norms = [math.sqrt(exact[i][i].real) for i in range(3)]
    try:
        readings = [abs(exact[i][j] - orc.quad_inner(samples[i], samples[j], grid))
                    / (norms[i] * norms[j]) for i in range(3) for j in range(3)]
    except TailNotDecayed as exc:
        return CheckResult("gamma-vs-quadrature", False, str(exc))
    return bounded_row("gamma-vs-quadrature", "max relative mismatch", readings, 1e-8)


def run_all(nr_params: NRParams, dirac_params: DiracParams) -> list[CheckResult]:
    """Every row at the b = 1 twins (a, 1) and (a, 1, d0/b, mbar/b), so each
    bound reads in units of b (b^2 for energies; TestLengthScale)."""
    q = dirac_params
    twin = (q.a, 1.0, q.d0 / q.b, q.mbar / q.b)
    if not all(map(math.isfinite, twin)):
        raise ValueError(f"verify's b = 1 twin (a, 1, d0/b, mbar/b) = {twin} is not finite")
    nr_params, dirac_params = NRParams(nr_params.a, 1.0), DiracParams(*twin)
    return [
        check_riccati(),
        check_nr_factorization(),
        check_nr_intertwining(),
        check_nr_eigen(nr_params),
        check_nr_nodes(nr_params),
        check_nr_orthogonality(nr_params),
        check_nr_fd(nr_params),
        check_dirac_kernels(),
        check_dirac_intertwining(),
        check_dirac_eigen(dirac_params),
        check_degeneracy(dirac_params),
        check_spectrum_identity(),
        check_xi_superpotential(dirac_params),
        check_dirac_scan(dirac_params),
        check_gamma_vs_quadrature(nr_params),
    ]
