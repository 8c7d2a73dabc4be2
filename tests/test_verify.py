"""Tests of the verification battery and its CLI wiring."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import susy_ladder.oracle
from susy_ladder import dirac as dc
from susy_ladder import verify as vf
from susy_ladder.cli import main
from susy_ladder.dirac import superpotential_matrix_residual
from susy_ladder.errors import DegenerateDenominator
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
        smallest = min(f.terms, key=lambda t: abs(t.coeff))
        return ExpoPoly(f.a, f.b, tuple(t for t in f.terms if t is not smallest))

    monkeypatch.setattr(vf.nr, "eigenfunction", lossy)
    result = vf.check_nr_eigen(NRParams(1.5, 0.5))
    assert not result.passed
    assert result.detail.startswith("levels 0..10, max relative coefficient ")
    assert result.detail.endswith(", levels [7] lack n+1 terms")


def test_nr_orthogonality_checks_the_set_it_is_given(monkeypatch):
    # Every scalar chain the battery builds is at its scalar set; the
    # orthogonality row once checked fig2 whatever the set.
    seen = set()
    full = vf.nr.eigenfunction

    def spy(params, n):
        seen.add(params)
        return full(params, n)

    p = NRParams(2.3, 0.45)
    monkeypatch.setattr(vf.nr, "eigenfunction", spy)
    results = vf.run_all(p, DiracParams(2.3, 0.45, -0.7, 1.1))
    assert seen == {p}
    (row,) = [r for r in results if r.name == "nr-orthogonality"]
    assert row == vf.check_nr_orthogonality(p) and row.passed
    assert row.detail != vf.check_nr_orthogonality(NRParams(1.5, 0.5)).detail


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
    # 128 log-grid points move an E^2 by 5.161e-04 on refinement, five times
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


def test_matrix_residual_degenerate_families():
    with pytest.raises(DegenerateDenominator):
        superpotential_matrix_residual(DiracParams(1.0, 2.0, 0.0, 0.5), 0, [1.0])
