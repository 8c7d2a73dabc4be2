"""Tests of the verification battery and its CLI wiring."""

import io
import itertools
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import ref_kernel_residual, ref_superpotential_matrix_residual

import susy_ladder.oracle
from susy_ladder import dirac as dc
from susy_ladder import verify as vf
from susy_ladder.cli import main
from susy_ladder.expalg import ExpoPoly
from susy_ladder.params import DiracParams, NRParams


def test_all_checks_pass_on_canonical_regimes():
    results = vf.run_all(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))
    assert len(results) == 15
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_results_are_deterministic():
    first = vf.run_all(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))
    second = vf.run_all(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))
    assert first == second


def test_nr_eigen_check_fails_a_chain_that_lost_a_term(monkeypatch):
    # The smallest coefficient at fig2 n=7 is below 1e-13 of the largest, so
    # the chain without it still passes the eigen-equation tolerance.
    full = vf.nr.eigenfunction

    def lossy(params, n):
        f = full(params, n)
        if n != 7:
            return f
        smallest = min(f.terms, key=lambda t: abs(t[2]))
        return ExpoPoly(f.a, f.b, tuple(t for t in f.terms if t is not smallest))

    monkeypatch.setattr(vf.nr, "eigenfunction", lossy)
    result = vf.check_nr_eigen(NRParams(1.5, 0.5))
    assert not result.passed
    assert result.detail.startswith("levels 0..10, max relative coefficient ")
    assert result.detail.endswith(", levels [7] lack n+1 terms")


def test_nr_orthogonality_checks_the_set_it_is_given(monkeypatch):
    # Every scalar chain the battery builds is at its scalar set's b = 1
    # twin; the orthogonality row once checked fig2 whatever the set.
    seen = set()
    full = vf.nr.eigenfunction

    def spy(params, n):
        seen.add(params)
        return full(params, n)

    twin = NRParams(2.3, 1.0)
    monkeypatch.setattr(vf.nr, "eigenfunction", spy)
    results = vf.run_all(NRParams(2.3, 0.45), DiracParams(2.3, 0.45, -0.7, 1.1))
    assert seen == {twin}
    (row,) = [r for r in results if r.name == "nr-orthogonality"]
    assert row == vf.check_nr_orthogonality(twin) and row.passed
    assert row.detail != vf.check_nr_orthogonality(NRParams(1.5, 1.0)).detail


def test_eigen_rows_pass_at_large_eigenvalues():
    # At a = 1e-3, b = 100 the Dirac magnitudes are near b/a = 1e5 from
    # level 1, and the scalar energies reach about -5e3, so H psi - E psi
    # keeps roundoff of order eps |E|. Both rows measure it against
    # max(1, |E|) and pass; divided by max|psi| alone, the Dirac row read
    # 9.937e-11 against 1e-11.
    q = DiracParams(1e-3, 100.0, 1.0, 1.0)
    for row in (vf.check_nr_eigen(NRParams(q.a, q.b)), vf.check_dirac_eigen(q)):
        assert row.passed, f"{row.name}: {row.detail}"
        assert float(row.detail.rsplit(" ", 1)[1]) <= 1e-14, row.detail
    assert vf.eigen_residual(ExpoPoly.term(q.a, q.b, 3e-11, j=0, k=0),
                             ExpoPoly.term(q.a, q.b, 2.0, j=0, k=0), -1e5) == 1.5e-16


def test_cli_verify_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "verify.csv"
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify", "--out", str(out)])
    assert code == 0
    text = Path(out).read_text()
    assert text.splitlines()[0] == "check,passed,detail"
    assert "FAIL" not in text

    # an impossible symbolic bound must be reported and flip the exit code
    monkeypatch.setattr(vf, "SYMBOLIC_TOL", 1e-30)
    with redirect_stdout(io.StringIO()):
        code = main(["verify", "--out", str(out)])
    assert code == 3
    assert "FAIL" in Path(out).read_text()


EXAMPLE_SET = ["--a", "1.2", "--b", "0.8", "--d0", "0.4", "--mbar", "0.2"]


@pytest.mark.parametrize("argv, failed, grid, points", [
    ([], "nr-fd-eigenvalues", "NR_POINTS", 64),
    # 128 log-grid points move an eps by 5.161e-04 on refinement, five times
    # the bound (256 points move it by 1.262e-04, too near the bound to pin)
    (EXAMPLE_SET, "dirac-fd-scan", "SCAN_POINTS", 128),
], ids=["coarse-nr-grid", "unstable-dirac-scan"])
def test_cli_verify_reports_unconverged_oracle(argv, failed, grid, points, capsys,
                                               monkeypatch):
    # a refinement shift past the oracle's bound fails its own check;
    # the other checks still run and print
    monkeypatch.setattr(vf, grid, points)
    assert main(["verify", *argv]) == 3
    rows = [line.split(",", 2) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 15
    by_name = {name: (passed, detail) for name, passed, detail in rows}
    passed, detail = by_name[failed]
    assert passed == "FAIL"
    assert detail.startswith("grid too coarse: ")


def test_cli_verify_passes_at_d0_0(capsys):
    # At d0 = 0 level 0 of families a/b has d = 0, where family a is (chi, 0)
    # and family b is (0, chi); the rows that build the family eigenvectors
    # pass with the others (at mbar = 0 too, in the test below).
    assert main(["verify", "--a", "1.5", "--b", "0.5", "--mbar", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert all(line.split(",", 2)[1] == "pass" for line in lines[1:])


def test_cli_verify_checks_the_zero_mode_at_d0_and_mbar_0(capsys):
    # At d0 = mbar = 0 the level-0 magnitude is 0, so C + eps = 0 there: the
    # scan finds it in channel k = a - 1/2 and the row checks levels 0..2 at
    # the twin (1.5, 1, 0, 0), and every row passes. On magnitudes the zero
    # mode read an eps error of 6e-6 as 2.4e-3 at a = 0.5.
    assert main(["verify", "--a", "1.5", "--b", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    rows = {name: (passed, detail) for name, passed, detail in
            (line.split(",", 2) for line in lines[1:])}
    passed, detail = rows["dirac-fd-scan"]
    assert passed == "pass"
    assert detail.startswith('"window (-4.667e-01, -6.551e-02), levels 0..2 with '
                             'multiplicities 1,2,2: max |fd - analytic| ')
    assert float(detail.split()[-3]) <= 1e-9
    assert all(passed == "pass" for passed, _ in rows.values())
    # a positive ground magnitude is scanned and checked with the others
    detail = vf.check_dirac_scan(DiracParams(1.5, 0.5, 0.0, 0.3)).detail
    assert "levels 0..2 with multiplicities 1,2,2: " in detail


def test_dirac_scan_window_shows_both_ends_at_a_50():
    # Four decimals would print both ends, -4.200e-4 and -3.629e-4, as -0.0004.
    detail = vf.check_dirac_scan(DiracParams(50.0, 1.0, 0.0, 0.0)).detail
    assert detail == ("window (-4.200e-04, -3.629e-04), levels 0..2 with multiplicities "
                      "1,2,2: found 0 values, expected 5")


def test_cli_verify_passes_at_fig3_parameters(capsys):
    # the scalar check at fig3's (a, b) = (1, 2): a wall at 1e-3 rho_max left
    # an error that refinement could not remove
    assert main(["verify", "--a", "1", "--b", "2", "--d0", "1", "--mbar", "0.1"]) == 0
    rows = [line.split(",", 2) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 15
    assert all(passed == "pass" for _, passed, _ in rows)


def test_cli_verify_passes_dirac_scan_at_the_example_set(capsys):
    # a grid uniform in rho failed here even at 16384 points (a shift of 1.7e-4)
    assert main(["verify", *EXAMPLE_SET]) == 0
    rows = [line.split(",", 2) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 15
    assert all(passed == "pass" for _, passed, _ in rows)


def test_dirac_scan_passes_on_seeded_draws_with_a_at_least_1():
    rng = np.random.default_rng(0)
    draws = [p for p in (vf.random_dirac(rng) for _ in range(60)) if p.a >= 1.0][:20]
    assert len(draws) == 20
    for p in draws:
        result = vf.check_dirac_scan(p)
        assert result.passed, f"{p}: {result.detail}"


def _draws(draw, seed, count):
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(count)]


def test_nr_fd_check_passes_every_seeded_draw():
    # 19 of these 200 failed on a wall grid at 4096 points
    for p in _draws(vf.random_nr, 0, 100) + _draws(vf.random_nr, 1, 100):
        result = vf.check_nr_fd(p)
        assert result.passed, f"{p}: {result.detail}"


def test_dirac_scan_passes_every_seeded_draw():
    # 4 of these 100 failed with a Dirichlet inner end at depth 1e-20
    for p in _draws(vf.random_dirac, 0, 100):
        result = vf.check_dirac_scan(p)
        assert result.passed, f"{p}: {result.detail}"


@pytest.mark.parametrize("draw", [18, 23, 30, 42])
def test_dirac_scan_passes_near_a_half(draw):
    # random_dirac(np.random.default_rng(0)) draws with a in [0.52, 0.62],
    # where a Dirichlet inner end biased the cf = a(a-1) channel
    p = _draws(vf.random_dirac, 0, draw + 1)[draw]
    assert 0.5 < p.a < 0.62
    result = vf.check_dirac_scan(p)
    assert result.passed, result.detail


@pytest.mark.parametrize("a", [0.5, 0.52])
def test_dirac_scan_passes_at_b_2_small_d0_and_mbar_near_a_half(a):
    # a ground magnitude near 0.21: checked on magnitudes, its E^2 step error
    # grew 1/(2E) times and moved it by 1.147e-04 (a = 0.5) and 1.081e-04
    result = vf.check_dirac_scan(DiracParams(a, 2.0, 0.1, 0.2))
    assert result.passed, result.detail


@pytest.mark.parametrize("a, b", [
    (1.2, 0.8),
    (1.0293949701285081, 1.2876431645150828),
    (1.2223999011091387, 2.269576139210064),
    (0.5764322215230082, 2.1485527100721353),
    *[(a, b) for a in (0.05, 0.1, 0.2, 0.3) for b in (0.1, 1.0, 3.0)],
], ids=["verify-example", "rng0-draw9", "rng0-draw22", "rng0-draw24",
        *[f"small-a-{a}-{b}" for a in (0.05, 0.1, 0.2, 0.3) for b in (0.1, 1, 3)]])
def test_nr_fd_check_passes_on_the_log_grid(a, b):
    # the rng0 draws are random_nr(np.random.default_rng(0)) draws. On a wall
    # grid at 4096 points, draw 24 and eight of the small-a sets moved by more
    # than RICHARDSON_SHIFT on refinement (2.3e-4 to 6.3e-3): rho^(a+1) is
    # steep at the origin for small a.
    result = vf.check_nr_fd(NRParams(a, b))
    assert result.passed, result.detail


# The four-component formulation of the two Dirac checks, kept as the
# reference their half-by-half form must match bit for bit.


def _kernel_residual_4(p, n):
    bd = dc.b_dagger(p, n)
    worst = max(bd.apply(dc.kernel_chi(p, n)).max_abs_coeff(),
                bd.apply(dc.kernel_xi(p, n)).max_abs_coeff())
    ad = dc.a_dagger(p, n)
    for fam in dc.FAMILIES:
        vec, _ = dc.eigenvector(p, n, fam)
        worst = max(worst, ad.apply(vec).max_abs_coeff())
    return worst


def _intertwining_residual_4(p, f2, f4):
    worst = 0.0
    for n in range(0, 4):
        bd = dc.b_dagger(p, n)
        h_lo, big_lo = dc.h_operator(p, n), dc.big_hamiltonian(p, n)
        h_hi, big_hi = dc.h_operator(p, n + 1), dc.big_hamiltonian(p, n + 1)
        r2 = h_hi.apply(bd.apply(f2)) - bd.apply(h_lo.apply(f2))
        ad = dc.a_dagger(p, n)
        r4 = big_hi.apply(ad.apply(f4)) - ad.apply(big_lo.apply(f4))
        worst = max(worst, r2.max_abs_coeff(), r4.max_abs_coeff())
    return worst


@pytest.mark.parametrize("seed, count", [(vf.SEED + 3, 8), (7, 20)],
                         ids=["battery-draws", "seed7"])
def test_kernel_residual_matches_the_four_component_form(seed, count):
    for p in _draws(vf.random_dirac, seed, count):
        for n in range(0, 5):
            assert vf.kernel_residual(p, n) == _kernel_residual_4(p, n), (p, n)


@pytest.mark.parametrize("seed, count", [(vf.SEED + 4, 5), (7, 20)],
                         ids=["battery-draws", "seed7"])
def test_intertwining_residual_matches_the_four_component_form(seed, count):
    # draws in the battery's order: parameters, then a 2- and a 4-spinor
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = vf.random_dirac(rng)
        f2 = vf.random_spinor(rng, p.a, p.b, 2)
        f4 = vf.random_spinor(rng, p.a, p.b, 4)
        assert vf.intertwining_residual(p, f2, f4) == _intertwining_residual_4(p, f2, f4), p


def test_oracle_is_independent_of_solver_modules():
    # the cross-check code must never import the ladder construction
    import ast
    tree = ast.parse(Path(susy_ladder.oracle.__file__).read_text())
    banned = {"nonrel", "dirac", "expalg", "verify", "cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            names.add((node.module or "").split(".")[-1])
        else:
            continue
        assert not (names & banned), f"oracle imports {names & banned}"


def test_matrix_residual_holds_at_d0_0():
    # Xi's columns at level 0 include (chi, 0) and (0, chi) there, and
    # W(rho) = Xi'(rho) Xi(rho)^(-1) still holds at fixed radii.
    for mbar in (0.5, 0.0):
        p = DiracParams(1.0, 2.0, 0.0, mbar)
        assert ref_superpotential_matrix_residual(p, 0, [0.5, 1.0, 2.0]) <= 1e-9


# check_dirac_kernels' 40 (p, n) draws, then the Dirac sets the CI runs verify at
_KERNEL_DRAWS = [(p, n) for p in _draws(vf.random_dirac, vf.SEED + 3, 8) for n in range(5)]
_KERNEL_CI = [(DiracParams(*s), n) for s in [(1.0, 2.0, 1.0, 0.1), (1.2, 0.8, 0.4, 0.2),
                                             (0.5764322215230082, 2.1485527100721353, 1.0, 0.1),
                                             (0.5, 2.0, 0.1, 0.2), (2.3, 0.45, -0.7, 1.1),
                                             (1.3, 0.9, -0.4, 0.6)] for n in range(5)]
# d0 = 0, where level 0 of families a/b has d = 0
_KERNEL_D0_0 = [(DiracParams(1.5, 0.5, 0.0, mbar), n) for mbar in (0.3, 0.0) for n in range(5)]


@pytest.mark.parametrize("cases", [_KERNEL_DRAWS, _KERNEL_CI, _KERNEL_D0_0],
                         ids=["battery-draws", "ci-sets", "d0-0"])
def test_kernel_residual_matches_the_eigenvector_form(cases):
    assert len(cases) in (40, 30, 10)
    for p, n in cases:
        assert vf.kernel_residual(p, n).hex() == ref_kernel_residual(p, n).hex(), (p, n)


@pytest.mark.parametrize("a", [1e-3, 1e-2, 0.05, 0.1, 0.3])
def test_xi_row_passes_at_small_a(a):
    # At small a the level-0 chi columns decay like e^(-b rho/a), so Xi is
    # singular at any fixed radii; the row checks W Xi = Xi' in the algebra,
    # where nothing is inverted.
    result = vf.check_xi_superpotential(DiracParams(a, 0.9, -0.4, 0.6))
    assert result.name == "xi-superpotential-identity"
    assert result.passed, result.detail


@pytest.mark.parametrize("a", ["1e-3", "0.05"])
def test_cli_verify_passes_every_row_at_small_a(a, capsys):
    # Below a = 1/2 the scan checks levels 1 and 2 in channel k = a + 1/2
    # and says that level 0 is left to the algebraic rows.
    assert main(["verify", "--a", a, "--b", "0.9", "--d0", "-0.4", "--mbar", "0.6"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 16
    assert [line.split(",", 1)[0] for line in lines[1:]] == [
        r.name for r in vf.run_all(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))]
    assert all(line.split(",", 2)[1] == "pass" for line in lines[1:])
    assert "\nxi-superpotential-identity,pass,max coefficient " in out
    assert "multiplicities 0,1,1: " in out
    assert 'level 0 is left to the algebraic rows (a < 1/2)"\n' in out


@pytest.mark.parametrize("a", [1e-3, 0.01, 0.05, 0.1, 0.3, 0.4, 0.49, 0.5, 1.3, 4.0, 8.0])
def test_dirac_scan_passes_from_a_1e_3_to_8(a):
    # Solved for E^2 with C on the diagonal, the row failed from a = 0.3
    # down: a shift of 12 on E^2 at a = 0.05 and of 89 at 1e-3.
    result = vf.check_dirac_scan(DiracParams(a, 0.9, -0.4, 0.6))
    assert result.passed, result.detail
    assert float(result.detail.split("max |fd - analytic| ")[1].split()[0]) <= 1e-5


def _rows(params):
    """run_all's rows by name, at params and its scalar (a, b)."""
    return {r.name: r for r in vf.run_all(NRParams(params.a, params.b), params)}


@pytest.mark.parametrize("params, level", [
    (DiracParams(0.05, 0.9, -0.4, 0.6), 1),
    (DiracParams(1.3, 0.9, -0.4, 0.6), 1),
    (DiracParams(1.5, 0.5, 0.0, 0.0), 0),
], ids=["a-0.05-level-1", "a-1.3-level-1", "zero-mode-level-0"])
def test_dirac_scan_fails_a_level_off_by_2e_3(params, level, monkeypatch):
    # Through run_all, at the b = 1 twin: the scan's 1e-3 bound (in b^2)
    # catches an oracle eps off by 2e-3 b^2 at one level, and the algebraic
    # rows catch a closed form off by 2e-3 at one level.
    assert all(r.passed for r in _rows(params).values())
    scan = vf.orc.dirac_spectrum_scan

    def off_scan(p, window, grid):
        eps = -(p.b / (p.a + level)) ** 2
        return [x + 2e-3 * p.b ** 2 if abs(x - eps) < 1e-6 * p.b ** 2 else x
                for x in scan(p, window, grid)]

    monkeypatch.setattr(vf.orc, "dirac_spectrum_scan", off_scan)
    result = _rows(params)["dirac-fd-scan"]
    assert not result.passed
    assert float(result.detail.split("max |fd - analytic| ")[1].split()[0]) >= 1.9e-3
    monkeypatch.setattr(vf.orc, "dirac_spectrum_scan", scan)
    exact = vf.dc.family_eigenvalue

    def off(p, n, fam):
        return exact(p, n, fam) + (2e-3 if n == level else 0.0)

    monkeypatch.setattr(vf.dc, "family_eigenvalue", off)
    rows = _rows(params)
    assert [name for name, r in rows.items() if not r.passed] == [
        "dirac-eigen-equations", "dirac-degeneracy-ladder", "spectrum-identities"]


# a from 1e-3 to 40 and b from 0.01 to 100, four (d0, mbar) pairs each
_XI_GRID = [DiracParams(a, b, d0, mbar)
            for a in (1e-3, 0.05, 0.5, 1.3, 5.0, 40.0) for b in (0.01, 0.9, 100.0)
            for d0, mbar in ((-0.4, 0.6), (1.0, 0.0), (3.0, 2.0), (0.1, 0.6))]


def test_xi_row_passes_wherever_the_sampled_identity_does():
    # The sampled form, at the radii and bound the row had, fails where Xi is
    # singular (small a or large b) and at a = 1e-3, b = 100, where the row
    # fails too; the row must pass at every set where the sampled form does.
    sampled_passes = 0
    for p in _XI_GRID:
        sampled = max(ref_superpotential_matrix_residual(p, n, [0.5, 1.0, 2.0, 5.0])
                      for n in (0, 1))
        if sampled <= 1e-8:
            sampled_passes += 1
            result = vf.check_xi_superpotential(p)
            assert result.passed, (p, result.detail)
    assert len(_XI_GRID) == 72 and sampled_passes == 44


@pytest.mark.parametrize("argv", ["--a 7 --b 1 --d0 1 --mbar 1",
                                  "--a 6.9 --b 0.5 --d0 0.3 --mbar 0.2",
                                  "--a 8 --b 2 --d0 -0.4 --mbar 0.6"], ids=["7", "6.9", "8"])
def test_cli_verify_reports_an_undecayed_quadrature_tail_as_its_row(argv, capsys):
    # From a of about 7 the quadrature window leaves the integrand above 1e-16
    # of its peak at rho_max: that row fails with the message, the others print.
    assert main(["verify", *argv.split()]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == 16
    rows = {name: (passed, detail) for name, passed, detail in
            (line.split(",", 2) for line in lines[1:])}
    passed, detail = rows.pop("gamma-vs-quadrature")
    assert passed == "FAIL" and detail.startswith("integrand at rho_max is ")
    assert detail.endswith(" of its peak")
    assert all(passed == "pass" for passed, _ in rows.values())


def _mismatch(result):
    return float(result.detail.split()[3])


@pytest.mark.parametrize("a", [1e-3, 0.05, 0.1, 0.2])
def test_quadrature_row_reads_roundoff_at_small_a(a):
    # rho^(a+1) is steepest at the origin at small a, where an h^4 rule on a
    # uniform grid comes within 17% of the row's 1e-8 bound
    result = vf.check_gamma_vs_quadrature(NRParams(a, 0.9))
    assert result.passed and _mismatch(result) <= 1e-12, result.detail


def test_quadrature_row_reads_roundoff_on_every_seeded_draw():
    for p in _draws(vf.random_nr, 0, 100) + _draws(vf.random_nr, 1, 100):
        result = vf.check_gamma_vs_quadrature(p)
        assert result.passed and _mismatch(result) <= 1e-12, f"{p}: {result.detail}"


@pytest.mark.parametrize("params", [NRParams(1.5, 0.5), NRParams(0.1, 0.9)],
                         ids=["fig2", "a-0.1"])
def test_quadrature_row_fails_closed_forms_off_by_1e_7(params, monkeypatch):
    exact = ExpoPoly.inner_product
    monkeypatch.setattr(ExpoPoly, "inner_product",
                        lambda f, g: exact(f, g) * (1 + 1e-7))
    result = vf.check_gamma_vs_quadrature(params)
    assert not result.passed and _mismatch(result) > 1e-8, result.detail


def _nan_on_call(fn, call, poison):
    """fn with its result at the given call (counted from 1) passed through poison."""
    calls = itertools.count(1)

    def wrapped(*args):
        out = fn(*args)
        return poison(out) if next(calls) == call else out
    return wrapped


# (row, owner of the reading, its name, the call to poison, poison): one
# reading of each kind turns NaN, and never the first, since Python's max
# keeps a NaN only when it comes first.
@pytest.mark.parametrize("row, owner, attr, call, poison", [
    (vf.check_dirac_kernels, vf, "kernel_residual", 3, lambda r: math.nan),
    (lambda: vf.check_nr_eigen(NRParams(1.5, 0.5)), vf, "eigen_residual", 3,
     lambda r: math.nan),
    (lambda: vf.check_nr_fd(NRParams(1.5, 0.5)), vf.orc, "fd_schrodinger_eigs", 1,
     lambda v: [v[0], math.nan, *v[2:]]),
    (lambda: vf.check_dirac_scan(DiracParams(1.0, 2.0, 1.0, 0.1)), vf.orc,
     "dirac_spectrum_scan", 1, lambda v: [*v[:2], math.nan, *v[3:]]),
    (lambda: vf.check_gamma_vs_quadrature(NRParams(1.5, 0.5)), vf.orc, "quad_inner", 5,
     lambda q: complex(math.nan, 0.0)),
], ids=["symbolic-residual", "eigen-residual", "fd-values", "scan-values", "quad-inner"])
def test_a_nan_reading_fails_its_row(row, owner, attr, call, poison, monkeypatch):
    assert row().passed
    monkeypatch.setattr(owner, attr, _nan_on_call(getattr(owner, attr), call, poison))
    result = row()
    assert not result.passed and " nan" in result.detail, result.detail


# numpy warns of the overflow until the sampled rows sample in log space
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_verify_fails_the_rows_that_overflow_at_a_60(capsys):
    # The unnormalised chains overflow at a = 60, b = 1, so the Gram entries
    # and the quadrature products are inf and NaN; both rows read NaN and FAIL.
    assert main(["verify", "--a", "60", "--b", "1"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    rows = {name: (passed, detail) for name, passed, detail in
            (line.split(",", 2) for line in lines[1:])}
    assert rows["nr-orthogonality"] == ("FAIL", "max relative off-diagonal nan (tol 1e-09)")
    assert rows["gamma-vs-quadrature"] == ("FAIL", "max relative mismatch nan (tol 1e-08)")


def test_cli_verify_reads_orthogonality_at_a_30(capsys):
    # The product of two diagonal Gram entries overflows at a = 30, b = 1;
    # it once read the relative off-diagonal as 0.000e+00 and passed.
    assert main(["verify", "--a", "30", "--b", "1"]) == 3
    assert ("\nnr-orthogonality,FAIL,max relative off-diagonal 1.362e-09 (tol 1e-09)\n"
            in capsys.readouterr().out)


def test_nr_fd_row_refuses_the_unconverged_solve_at_large_b():
    # Called directly, a row's bounds are absolute: at b = 100, a = 1e-3 the
    # shift is 8.001e-2 on epsilon (not on 2 epsilon), far past the bound.
    # run_all hands the row the b = 1 twin, where it passes
    # (test_a_set_scaled_by_100_passes_every_row_its_original_passes).
    result = vf.check_nr_fd(NRParams(1e-3, 100.0))
    assert not result.passed
    assert result.detail == "grid too coarse: an eigenvalue moved by 8.001e-02 on refinement"


def test_nr_fd_row_counts_the_levels_a_short_grid_holds(monkeypatch):
    # At fig2's twin (1.5, 1), which run_all hands the row, a Dirichlet end
    # at rho = 32 pushes level 2 out of the window. The end at rho = 50 that
    # fig2 had, 25 at the twin, moves a level by 2.2e-4 on refinement, past
    # RICHARDSON_SHIFT in b^2 units.
    monkeypatch.setattr(vf, "default_rho_max", lambda params, n_max: 32.0)
    result = vf.check_nr_fd(NRParams(1.5, 1.0))
    assert not result.passed
    assert result.detail == ("window (-8.400e-02, -2.061e-02), levels 0..2 with "
                             "multiplicities 1,1,1: found 2 values, expected 3")


# The CI set (1.3, 0.9, -0.4, 0.6) scaled to b = 0.009, 0.9 and 100
_SCALED_CI = [DiracParams(1.3, b, -0.4 * b / 0.9, 0.6 * b / 0.9) for b in (0.009, 0.9, 100.0)]


@pytest.mark.parametrize("params", _SCALED_CI, ids=["b-0.009", "b-0.9", "b-100"])
def test_nr_fd_row_fails_a_level_off_by_1e_3_relative_at_every_b(params, monkeypatch):
    # spectrum_radial 0.1% too large at level 1 leaves the window and its
    # count as they are. In absolute units the row passed it at b = 0.009
    # (3.719e-9) and failed unmutated at b = 100 (grid too coarse); at the
    # twin it reads 4.591e-5 against 1e-5 at every b.
    assert all(r.passed for r in _rows(params).values())
    exact = vf.nr.spectrum_radial
    monkeypatch.setattr(vf.nr, "spectrum_radial",
                        lambda p, n: exact(p, n) * (1.001 if n == 1 else 1.0))
    result = _rows(params)["nr-fd-eigenvalues"]
    assert not result.passed
    assert " max |fd - analytic| 4.591e-05 (tol 1e-05)" in result.detail


def test_dirac_scan_fails_doubled_eps_at_a_1e_3(monkeypatch):
    # Compared as magnitudes sqrt(C + eps) with C ~ (b/a)^2, the doubled eps
    # passed here at 4.491e-4; compared as eps it reads 9.980e-1.
    params = DiracParams(1e-3, 0.9, -0.4, 0.6)
    assert all(r.passed for r in _rows(params).values())
    scan = vf.orc.dirac_spectrum_scan
    monkeypatch.setattr(vf.orc, "dirac_spectrum_scan",
                        lambda p, window, grid: [2.0 * x for x in scan(p, window, grid)])
    result = _rows(params)["dirac-fd-scan"]
    assert not result.passed
    assert float(result.detail.split("max |fd - analytic| ")[1].split()[0]) > 0.9


@pytest.mark.parametrize("small, large", [
    (DiracParams(1.3, 0.9, -0.4, 0.6), DiracParams(1.3, 90.0, -40.0, 60.0)),
    (DiracParams(1e-3, 1.0, 0.01, 0.01), DiracParams(1e-3, 100.0, 1.0, 1.0)),
], ids=["1.3-x100", "1e-3-x100"])
def test_a_set_scaled_by_100_passes_every_row_its_original_passes(small, large):
    # In absolute units both large sets failed both oracle rows on a coarse
    # grid, and (1e-3, 100, 1, 1) failed xi-superpotential-identity at 2.910e-11.
    rows = _rows(large)
    assert [n for n, r in _rows(small).items() if r.passed] == [
        n for n, r in rows.items() if r.passed]
    assert all(r.passed for r in rows.values())
