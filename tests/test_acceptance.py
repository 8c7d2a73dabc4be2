"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Tolerances are fixed here; nothing is tuned at runtime.
"""

import math
import time

from conftest import (random_phys, ref_channel_eigs, ref_superpotential_matrix_residual,
                      residual_scalar, rng_for)

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder import oracle as orc
from susy_ladder.params import DiracParams, NRParams, default_rho_max

FIG2 = NRParams(1.5, 0.5)
FIG3 = DiracParams(a=1.0, b=2.0, d0=1.0, mbar=0.1)


def report(index: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_scalar_regime():
    """Spectrum values, oracle agreement to 1e-12 relative, node counts; under 10 s."""
    start = time.monotonic()
    expect = [-0.02, -0.25 / 24.5, -0.25 / 40.5]
    analytic = [nr.spectrum_radial(FIG2, n) for n in range(3)]
    spectrum_ok = all(abs(x - y) <= 1e-12 for x, y in zip(analytic, expect))

    fd = orc.fd_schrodinger_eigs(FIG2, (-0.021, -0.005))
    fd_err = max(abs(x - y) / abs(y) for x, y in zip(fd, analytic))
    fd_ok = len(fd) == 3 and fd_err <= 1e-12

    nodes = [len(nr.eigenfunction_nodes(FIG2, n)) for n in range(3)]
    nodes_ok = nodes == [0, 1, 2]

    elapsed = time.monotonic() - start
    ok = spectrum_ok and fd_ok and nodes_ok and elapsed <= 10.0
    report(1, ok, f"spectrum {analytic}, oracle error {fd_err:.2e}, nodes {nodes}, "
                  f"{elapsed:.2f} s")
    assert spectrum_ok
    assert fd_ok
    assert nodes_ok
    assert elapsed <= 10.0


def test_criterion_2_matrix_regime():
    """Family-a eigenvalues, exact a/c degeneracy, squared-operator scan with
    multiplicities in (0.9, 2.2); under 60 s."""
    start = time.monotonic()
    expect = [math.sqrt(1.01), math.sqrt(4.01), math.sqrt(41.0 / 9.0 + 0.01)]
    values = [dc.family_eigenvalue(FIG3, n, "a") for n in range(3)]
    values_ok = all(abs(x - y) <= 1e-12 for x, y in zip(values, expect))

    degeneracy_ok = all(dc.family_eigenvalue(FIG3, n, "c")
                        == dc.family_eigenvalue(FIG3, n + 1, "a")
                        for n in range(3))

    # the scan takes and returns eps = E^2 - C; magnitudes are sqrt(C + eps)
    const = (FIG3.b / FIG3.a) ** 2 + FIG3.d0 ** 2 + FIG3.mbar ** 2
    found = [math.sqrt(const + x) for x in
             orc.dirac_spectrum_scan(FIG3, (0.9 ** 2 - const, 2.2 ** 2 - const))]
    # analytic ladder within the window: level 0 once, each higher level twice
    ladder = [math.hypot(FIG3.mbar, dc.dn(FIG3, n)) for n in range(8)]
    in_window = [(x, 1 if n == 0 else 2) for n, x in enumerate(ladder)
                 if 0.9 < x < 2.2]
    stated_ok = True
    for n, x in enumerate(expect):
        matches = [g for g in found if abs(g - x) <= 1e-3]
        want = 1 if n == 0 else 2
        stated_ok = stated_ok and len(matches) == want
    complete_ok = len(found) == sum(m for _, m in in_window) and all(
        any(abs(g - x) <= 1e-3 for x, _ in in_window) for g in found)

    elapsed = time.monotonic() - start
    ok = values_ok and degeneracy_ok and stated_ok and complete_ok and elapsed <= 60.0
    report(2, ok, f"eigenvalues {[f'{v:.7f}' for v in values]}, scan found "
                  f"{len(found)} magnitudes matching the analytic ladder, "
                  f"{elapsed:.2f} s")
    assert values_ok
    assert degeneracy_ok
    assert stated_ok
    assert complete_ok
    assert elapsed <= 60.0


def test_criterion_3_symbolic_zero_residuals():
    """Riccati, both intertwinings, factorization, and kernel annihilations at
    coefficient tolerance 1e-11 over 20 randomized parameter sets, n <= 4."""
    tol = 1e-11
    worst = 0.0

    rng = rng_for(50)
    for _ in range(20):
        a, b = float(rng.uniform(0.4, 2.5)), float(rng.uniform(0.4, 2.5))
        p = NRParams(a, b)
        from conftest import random_poly
        f = random_poly(rng, a, b)
        for n in range(1, 5):
            worst = max(worst, nr.riccati_residual(p, n).max_abs_coeff())
            up = nr.ladder(p, n, "creation")
            down = nr.ladder(p, n, "annihilation")
            eps = nr.factorization_energy(p, n)
            worst = max(worst, (nr.apply_hamiltonian(p, n - 1, f)
                                - down.apply(up.apply(f))
                                - f.scale(eps)).max_abs_coeff())
            worst = max(worst, (nr.apply_hamiltonian(p, n, f)
                                - up.apply(down.apply(f))
                                - f.scale(eps)).max_abs_coeff())
            worst = max(worst, (nr.apply_hamiltonian(p, n, up.apply(f))
                                - up.apply(nr.apply_hamiltonian(p, n - 1, f))
                                ).max_abs_coeff())

    rng = rng_for(51)
    for _ in range(20):
        from conftest import random_dirac, random_spinor
        dp = random_dirac(rng)
        f4 = random_spinor(rng, dp.a, dp.b, 4)
        for n in range(0, 5):
            bd = dc.b_dagger(dp, n)
            worst = max(worst, bd.apply(dc.kernel_chi(dp, n)).max_abs_coeff())
            worst = max(worst, bd.apply(dc.kernel_xi(dp, n)).max_abs_coeff())
            ad = dc.a_dagger(dp, n)
            for fam in dc.FAMILIES:
                vec, _ = dc.eigenvector(dp, n, fam)
                worst = max(worst, ad.apply(vec).max_abs_coeff())
            worst = max(worst, (dc.big_hamiltonian(dp, n + 1).apply(ad.apply(f4))
                                - ad.apply(dc.big_hamiltonian(dp, n).apply(f4))
                                ).max_abs_coeff())

    ok = worst <= tol
    report(3, ok, f"max residual coefficient {worst:.3e} over 20+20 parameter "
                  f"sets (tol {tol:.0e})")
    assert ok


def test_criterion_4_spectrum_identities():
    """Closed-form relativistic spectrum vs the level-constant route, and both
    scalar energy routes, to relative 1e-12 over 100 random parameter sets."""
    rng = rng_for(52)
    worst = 0.0
    for _ in range(100):
        phys = random_phys(rng)
        dp = phys.to_dirac()
        np_ = phys.to_nr()
        for n in range(0, 6):
            for sign in (1, -1):
                closed = dc.spectrum_dirac(phys, n, sign)
                via = sign * phys.c * phys.hbar * math.hypot(dp.mbar, dc.dn(dp, n))
                worst = max(worst, abs(closed - via) / abs(closed))
            direct = nr.spectrum_physical(phys, n)
            via_radial = (phys.hbar ** 2 / phys.m) * nr.spectrum_radial(np_, n) \
                + phys.pz ** 2 / (2 * phys.m)
            worst = max(worst, abs(direct - via_radial) / abs(direct))
    ok = worst <= 1e-12
    report(4, ok, f"max relative mismatch {worst:.3e} over 100 parameter sets "
                  f"(tol 1e-12)")
    assert ok


def test_criterion_5_xi_superpotential_identity():
    """Eigenvector-matrix superpotential identity at four radii, levels 0 and 1."""
    radii = [0.5, 1.0, 2.0, 5.0]
    residuals = [ref_superpotential_matrix_residual(FIG3, n, radii) for n in (0, 1)]
    worst = max(residuals)
    ok = worst <= 1e-8
    report(5, ok, f"max Frobenius residual {worst:.3e} at radii {radii} (tol 1e-08)")
    assert ok


def test_criterion_6_oracle_convergence():
    """Refinement ratio ~4 (order h^2) of the finite-difference reference's
    eigenvalue, a Ritz value that falls to the level as the basis grows, and
    residual-stencil ratio ~16 (order h^4) on the first scalar eigenfunction."""
    exact = nr.spectrum_radial(FIG2, 0)
    # one unrefined reference solve of the channel k = a + 1/2, whose eps is 2 epsilon
    eig_errs = [0.5 * ref_channel_eigs(FIG2.a + 0.5, FIG2.b, orc.LogGrid(280.0, n),
                                       (-0.042, -0.038))[0] - exact
                for n in (1024, 2047)]
    eig_ratio = eig_errs[0] / eig_errs[1]
    # level 0's Ritz value at a scale 1.5 times its own: above the level,
    # and falling to it as the basis grows
    scale = 1.5 * 2 * math.sqrt(-2 * exact)
    ritz = [0.5 * orc._ritz_values(FIG2.a + 0.5, FIG2.b, scale, n)[0] for n in (2, 4, 8, 16)]
    ritz_ok = all(x > y >= exact * (1 + 1e-13) for x, y in zip(ritz, ritz[1:]))
    ritz_ok = ritz_ok and abs(ritz[-1] - exact) <= 1e-12 * abs(exact)

    rels = []
    for n in (8192, 16384):
        grid = orc.RadialGrid(8.0, 8000.0, n)
        f = nr.eigenfunction(FIG2, 0).eval_array(grid.points).real
        rels.append(residual_scalar(f, exact, FIG2, grid).relative_l2)
    res_ratio = rels[0] / rels[1]

    ok = 3.5 <= eig_ratio <= 4.5 and ritz_ok and 14.0 <= res_ratio <= 18.0
    report(6, ok, f"eigenvalue ratio {eig_ratio:.3f} in [3.5, 4.5], Ritz values "
                  f"{', '.join(f'{x:.3e}' for x in ritz)} falling to {exact:.3e}, "
                  f"residual ratio {res_ratio:.3f} in [14, 18]")
    assert 3.5 <= eig_ratio <= 4.5
    assert ritz_ok
    assert 14.0 <= res_ratio <= 18.0


def test_criterion_7_orthogonality_and_quadrature():
    """Gram matrices diagonal to 1e-9 relative; closed-form inner products and
    the oracle's trapezoid rule in ln rho agree to 1e-8."""
    worst_off = 0.0

    nr_funcs = [nr.eigenfunction(FIG2, n) for n in range(5)]
    nr_gram = [[nr_funcs[i].inner_product(nr_funcs[j]) for j in range(5)]
               for i in range(5)]
    for i in range(5):
        for j in range(5):
            if i != j:
                rel = abs(nr_gram[i][j]) / math.sqrt(
                    nr_gram[i][i].real * nr_gram[j][j].real)
                worst_off = max(worst_off, rel)

    chains = [dc.eigenfunction_chain(FIG3, n, "a") for n in range(4)]
    dc_gram = [[dc.spinor_inner(chains[i], chains[j]) for j in range(4)]
               for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                rel = abs(dc_gram[i][j]) / math.sqrt(
                    dc_gram[i][i].real * dc_gram[j][j].real)
                worst_off = max(worst_off, rel)

    worst_quad = 0.0
    grid = orc.LogGrid(default_rho_max(FIG2, 4), 1024)
    pts = grid.points
    samples = [f.eval_array(pts) for f in nr_funcs]
    for i in range(5):
        for j in range(5):
            exact = nr_funcs[i].inner_product(nr_funcs[j])
            approx = orc.quad_inner(samples[i], samples[j], grid)
            scale = math.sqrt(nr_funcs[i].inner_product(nr_funcs[i]).real
                              * nr_funcs[j].inner_product(nr_funcs[j]).real)
            worst_quad = max(worst_quad, abs(exact - approx) / scale)

    dgrid = orc.LogGrid(default_rho_max(FIG3, 3), 2048)
    dpts = dgrid.points
    dsamples = [c.eval_array(dpts) for c in chains]
    for i in range(4):
        for j in range(4):
            exact = dc_gram[i][j]
            approx = sum(orc.quad_inner(dsamples[i][m], dsamples[j][m], dgrid)
                         for m in range(4))
            scale = math.sqrt(dc_gram[i][i].real * dc_gram[j][j].real)
            worst_quad = max(worst_quad, abs(exact - approx) / scale)

    ok = worst_off <= 1e-9 and worst_quad <= 1e-8
    report(7, ok, f"max relative off-diagonal {worst_off:.3e} (tol 1e-09), "
                  f"max quadrature mismatch {worst_quad:.3e} (tol 1e-08)")
    assert worst_off <= 1e-9
    assert worst_quad <= 1e-8
