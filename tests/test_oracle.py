"""Tests of the oracle: the Laguerre-basis channel solves against their
closed forms and the finite-difference reference (tests/conftest.py),
residual stencils, the squared-operator spectrum scan, the bundled LAPACK
the reference bisects on, and trapezoid quadrature in ln rho."""

import math

import numpy as np
import pytest
from conftest import (BISECTION_TOL, ref_channel_eigs, ref_refined, ref_scalar_levels,
                      ref_scan_levels, residual_scalar)

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder import oracle as orc
from susy_ladder import verify as vf
from susy_ladder.errors import GridTooCoarse, TailNotDecayed
from susy_ladder.params import DiracParams, NRParams, b1_twin, default_rho_max

FIG2 = NRParams(1.5, 0.5)
FIG3 = DiracParams(a=1.0, b=2.0, d0=1.0, mbar=0.1)
# epsilon window holding levels 0, 1 and 2 of FIG2 (-0.02, -0.0102, -0.0062)
FIG2_WINDOW = (-0.021, -0.005)


def raw_scalar(params, window, grid):
    """One unrefined reference solve of the scalar problem: the channel
    k = a + 1/2's eps = 2 epsilon inside the doubled window, halved."""
    lo, hi = window
    return 0.5 * ref_channel_eigs(params.a + 0.5, params.b, grid, (2 * lo, 2 * hi))


class TestRadialGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            orc.RadialGrid(0.0, 10.0, 128)
        with pytest.raises(ValueError):
            orc.RadialGrid(1.0, 10.0, 128)  # rho_min > 1e-3 rho_max
        with pytest.raises(ValueError):
            orc.RadialGrid(0.001, 10.0, 32)

    def test_spacing_and_points(self):
        g = orc.RadialGrid(0.01, 10.0, 1000)
        assert g.points[0] == pytest.approx(0.01)
        assert g.points[-1] == pytest.approx(10.0)
        assert np.allclose(np.diff(g.points), g.h)

    def test_wall_offset_rule_has_no_exemption(self):
        # rho_max/64 exceeds 1e-3 rho_max, even with rho_min equal to the spacing
        with pytest.raises(ValueError):
            orc.RadialGrid(100.0 / 64, 100.0, 64)
        with pytest.raises(ValueError):
            orc.RadialGrid(0.9, 100.0, 64)


def _genlaguerre_matrices(k, size):
    """S, K and the Coulomb matrix of the basis in x = c rho, by
    Gauss-Laguerre quadrature with weight x^(2k) e^(-x), exact on these
    polynomial integrands. K applies -d^2/dx^2 + (k^2 - 1/4)/x^2 to the ket:
    with s = k + 1/2 it leaves x^s e^(-x/2) [(s/x - 1/4) L - (2s/x - 1) L' - L'']."""
    from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre
    alpha, s = 2 * k, k + 0.5
    x, w = roots_genlaguerre(size + 2, alpha)
    m = np.arange(size)[:, None]
    norm = np.exp(0.5 * (gammaln(m + 1) - gammaln(m + alpha + 1)))
    lag = norm * eval_genlaguerre(m, alpha, x)
    d1 = -norm * np.where(m >= 1, eval_genlaguerre(np.maximum(m - 1, 0), alpha + 1, x), 0)
    d2 = norm * np.where(m >= 2, eval_genlaguerre(np.maximum(m - 2, 0), alpha + 2, x), 0)
    ket = (s - x / 4) * lag - (2 * s - x) * d1 - x * d2
    return (lag * w * x) @ lag.T, (lag * w) @ ket.T, (lag * w) @ lag.T


class TestRitzSolve:
    @pytest.mark.parametrize("k", [1.7, 0.5, 0.0, -0.3, -0.5 + 1e-3])
    def test_matrices_are_the_closed_forms(self, k):
        # Ritz values of the pencil (c^2 K - 2bc C) v = eps S v from matrices
        # taken by quadrature, with no closed form, at a scale off every level
        size, b, c = 8, 0.9, 1.3
        s, kin, coulomb = _genlaguerre_matrices(k, size)
        assert np.allclose(coulomb, np.eye(size), atol=1e-12)
        lower_inv = np.linalg.inv(np.linalg.cholesky(s))
        expect = np.linalg.eigvalsh(lower_inv @ (c * c * kin - 2 * b * c * coulomb) @ lower_inv.T)
        found = orc._ritz_values(k, b, c, size)
        assert np.max(np.abs(found - expect) / np.abs(expect)) <= 1e-10

    @pytest.mark.parametrize("k", [1.7, 0.0, -0.4])
    def test_ritz_values_bound_the_levels_from_above(self, k):
        # at any scale and basis size each Ritz value lies above its level,
        # and a larger basis never raises it
        b = 0.9
        exact = np.array([-(b / (k + 0.5 + m)) ** 2 for m in range(3)])
        for c in (0.3, 1.0, 4.0):
            last = np.full(3, np.inf)
            for size in (6, 13, 26, 52):
                low = orc._ritz_values(k, b, c, size)[:3]
                assert np.all(low >= exact * (1 + 1e-12))
                assert np.all(low <= last + 1e-12 * np.abs(exact))
                last = low

    def test_a_window_end_scale_holds_its_level_exactly(self):
        # c = 2 sqrt(-eps) puts level m's state in the span of m + 1 functions
        k, b = 1.7, 0.9
        for m in range(3):
            eps = -(b / (k + 0.5 + m)) ** 2
            assert orc._ritz_values(k, b, 2 * math.sqrt(-eps), m + 1)[m] == pytest.approx(
                eps, rel=1e-13)


class TestScalarEigs:
    def test_fig2_first_levels(self):
        fd = orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW)
        assert len(fd) == 3
        for n, x in enumerate(fd):
            assert x == pytest.approx(nr.spectrum_radial(FIG2, n), rel=1e-12)
        assert fd == sorted(fd)

    def test_the_window_selects_by_value(self):
        # level 2 (-0.0062) lies above the window's end
        assert len(orc.fd_schrodinger_eigs(FIG2, (-0.021, -0.008))) == 2
        assert orc.fd_schrodinger_eigs(FIG2, (-0.019, -0.0105)) == []

    def test_window_must_be_ordered_and_below_0(self):
        with pytest.raises(ValueError, match="lo < hi < 0"):
            orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW[::-1])
        with pytest.raises(ValueError, match="lo < hi < 0"):
            orc.fd_schrodinger_eigs(FIG2, (-0.021, 0.0))

    def test_a_small_basis_moves_a_value_past_the_shift_bound(self, monkeypatch):
        # 12 functions against 6 move level 2 of fig2 by 8.9e-5 of itself
        monkeypatch.setattr(orc, "BASIS_SIZE", 12)
        with pytest.raises(GridTooCoarse, match="moved by 8.887e-05 of itself"):
            orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW)

    def test_a_small_basis_changes_the_count(self, monkeypatch):
        monkeypatch.setattr(orc, "BASIS_SIZE", 4)
        with pytest.raises(GridTooCoarse, match="count from 3 to 2"):
            orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW)

    def test_the_shared_window_holds_three_levels(self):
        # verify's window rule at a small draw
        params = NRParams(0.17087189561177435, 0.09875652480916083)
        eps = [nr.spectrum_radial(params, n) for n in range(4)]
        window = (1.05 * eps[0], 0.5 * (eps[2] + eps[3]))
        assert len(orc.fd_schrodinger_eigs(params, window)) == 3


class TestGridReference:
    """The finite-difference solve of tests/conftest.py, the reference the
    basis solve is checked against."""

    def test_refinement_halves_the_step(self):
        # 2N - 1 points on the same window: h halves exactly, and every
        # coarse point is a fine one
        seen = []
        ref_refined(lambda g: seen.append(g) or [0.0], orc.LogGrid(100.0, 1024))
        coarse, fine = seen
        assert fine.h == pytest.approx(coarse.h / 2, rel=1e-14)
        assert np.allclose(fine.points[::2], coarse.points, rtol=1e-12)

    def test_richardson_value_on_a_log_grid(self):
        # fig3's (a, b): every requested level is refined, and the Richardson
        # value beats the raw solve on each
        params = NRParams(1.0, 2.0)
        window = (-0.6, -0.1)  # levels -1/2, -2/9 and -1/8
        raw = raw_scalar(params, window, orc.LogGrid(default_rho_max(params, 3), 1024))
        rich = ref_scalar_levels(params, window)
        assert len(raw) == len(rich) == 3
        for n in range(3):
            exact = nr.spectrum_radial(params, n)
            assert abs(rich[n] - exact) <= 1e-8
            assert abs(rich[n] - exact) < abs(raw[n] - exact)

    def test_second_order_convergence(self):
        # 1024, 2047 and 4093 points halve the step exactly
        exact = nr.spectrum_radial(FIG2, 0)
        errs = [raw_scalar(FIG2, (-0.021, -0.019), orc.LogGrid(280.0, n))[0] - exact
                for n in (1024, 2047, 4093)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.5 <= r1 <= 4.5
        assert 3.5 <= r2 <= 4.5

    def test_a_coarse_grid_moves_a_value_past_the_shift_bound(self):
        # 64 log-grid points over a 440-wide box move level 2 by 3.0e-4
        grid = orc.LogGrid(440.0, 64)
        with pytest.raises(GridTooCoarse, match="2.985e-04"):
            ref_refined(lambda g: raw_scalar(FIG2, FIG2_WINDOW, g), grid)

    @staticmethod
    def dense_channel(cf, k, b, grid):
        # the graded matrix of the documented substitution, with the ghost
        # value v_-1 = exp(-k h) v_0 of the regular solution on the first row
        rho, h = grid.points, grid.h
        diag = (2 / h ** 2 + cf + 0.25 - 2 * b * rho) / rho ** 2
        diag[0] -= math.exp(-k * h) / (h * rho[0]) ** 2
        off = -1 / (h ** 2 * rho[:-1] * rho[1:])
        return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def test_bisection_matches_a_dense_solve(self):
        # bisection at scipy's default tolerance (machine epsilon times
        # ||T||_1) returns -2.725 for every one of these; at a = 0.3 the
        # cf = a(a-1) channel's k is negative
        grid = orc.LogGrid(40.0 * (FIG3.a + 4) / FIG3.b, 256)
        lo, hi = -10.0, -0.3
        for a in (FIG3.a, 0.3):
            for cf, k in ((a * (a - 1), a - 0.5), (a * (a + 1), a + 0.5)):
                eps = self.dense_channel(cf, k, FIG3.b, grid)
                expect = eps[(eps >= lo) & (eps <= hi)]
                found = ref_channel_eigs(k, FIG3.b, grid, (lo, hi))
                assert len(found) == len(expect) > 0
                assert np.max(np.abs(found - expect)) <= 1e-10

    def test_scalar_bisection_matches_a_dense_solve(self):
        # the scalar operator times 2 is the channel cf = a(a+1); at scipy's
        # default tolerance all three levels come out as -8.0e-4
        grid = orc.LogGrid(default_rho_max(FIG2, 3), 256)
        eps = self.dense_channel(FIG2.a * (FIG2.a + 1), FIG2.a + 0.5, FIG2.b, grid)
        lo, hi = FIG2_WINDOW
        expect = eps[(eps >= 2 * lo) & (eps <= 2 * hi)] / 2
        found = raw_scalar(FIG2, FIG2_WINDOW, grid)
        assert len(found) == len(expect) == 3
        assert np.max(np.abs(found - expect)) <= 1e-12


class TestScalarResidual:
    def test_exact_eigenfunction_small_residual(self):
        grid = orc.default_grid(FIG2, 0, 8192)
        f = nr.eigenfunction(FIG2, 0).eval_array(grid.points).real
        rep = residual_scalar(f, nr.spectrum_radial(FIG2, 0), FIG2, grid)
        assert rep.relative_l2 <= 1e-8

    def test_all_low_levels_within_bound(self):
        for n in range(4):
            grid = orc.default_grid(FIG2, n, 8192)
            f = nr.eigenfunction(FIG2, n).eval_array(grid.points).real
            rep = residual_scalar(f, nr.spectrum_radial(FIG2, n), FIG2, grid)
            assert rep.relative_l2 <= 1e-7

    def test_energy_offset_linearity(self):
        grid = orc.default_grid(FIG2, 0, 4096)
        f = nr.eigenfunction(FIG2, 0).eval_array(grid.points).real
        rep = residual_scalar(f, nr.spectrum_radial(FIG2, 0) + 0.01, FIG2, grid)
        assert rep.l2_residual == pytest.approx(0.01 * rep.l2_norm, rel=1e-4)

    def test_zero_function(self):
        grid = orc.default_grid(FIG2, 0, 4096)
        rep = residual_scalar(np.zeros(grid.n_points), -0.02, FIG2, grid)
        assert rep.l2_residual == 0.0

    def test_fourth_order_stencil_convergence(self):
        # fixed left endpoint far from the fractional-power origin so the
        # smooth region dominates the residual norm
        exact = nr.spectrum_radial(FIG2, 0)
        rels = []
        for n in (8192, 16384):
            grid = orc.RadialGrid(8.0, 8000.0, n)
            f = nr.eigenfunction(FIG2, 0).eval_array(grid.points).real
            rels.append(residual_scalar(f, exact, FIG2, grid).relative_l2)
        assert 14.0 <= rels[0] / rels[1] <= 18.0


class TestDiracResidual:
    def test_chain_states_small_residual(self):
        # rho_max tailored to each chain's slowest decay rate keeps the
        # stencil error below the target at 8192 points
        for fam, n in (("a", 0), ("a", 1), ("c", 0)):
            grid = orc.default_grid(FIG3, n, 8192)
            phi = dc.eigenfunction_chain(FIG3, n, fam).eval_array(grid.points)
            rep = orc.residual_dirac(phi, dc.family_eigenvalue(FIG3, n, fam),
                                     FIG3, grid)
            assert rep.relative_l2 <= 1e-8

    def test_every_family_confirmed(self):
        # all four families, levels 0..2, on default grids at the module bound
        for fam in ("a", "b", "c", "d"):
            for n in range(3):
                grid = orc.default_grid(FIG3, n, 8192)
                phi = dc.eigenfunction_chain(FIG3, n, fam).eval_array(grid.points)
                rep = orc.residual_dirac(phi, dc.family_eigenvalue(FIG3, n, fam),
                                         FIG3, grid)
                assert rep.relative_l2 <= 1e-7

    def test_degenerate_partner_energy(self):
        # the family-c level-1 chain satisfies the equation at the family-a
        # level-2 eigenvalue, since the two coincide
        grid = orc.default_grid(FIG3, 2, 8192)
        phi = dc.eigenfunction_chain(FIG3, 1, "c").eval_array(grid.points)
        rep = orc.residual_dirac(phi, dc.family_eigenvalue(FIG3, 2, "a"), FIG3, grid)
        assert rep.relative_l2 <= 1e-8

    def test_sign_flip_linearity(self):
        grid = orc.default_grid(FIG3, 1, 4096)
        phi = dc.normalize_spinor(dc.eigenfunction_chain(FIG3, 0, "a")
                                  ).eval_array(grid.points)
        value = dc.family_eigenvalue(FIG3, 0, "a")
        rep = orc.residual_dirac(phi, -value, FIG3, grid)
        assert rep.l2_residual == pytest.approx(2 * abs(value) * rep.l2_norm, rel=1e-3)


class TestSpectrumScan:
    CONST = (FIG3.b / FIG3.a) ** 2 + FIG3.d0 ** 2 + FIG3.mbar ** 2
    # eps = E^2 - C from the magnitudes 0.9 and 2.2: levels 0..3 of fig3
    WINDOW = (0.9 ** 2 - CONST, 2.2 ** 2 - CONST)

    def test_fig3_window(self):
        found = orc.dirac_spectrum_scan(FIG3, self.WINDOW)
        # analytic content of the window: level 0 once, levels 1..3 twice,
        # each at the Coulomb level eps = -b^2/(a+n)^2
        expect = [n for n in range(4) for _ in range(1 if n == 0 else 2)]
        assert len(found) == len(expect)
        for got, n in zip(found, expect):
            assert got == pytest.approx(-(FIG3.b / (FIG3.a + n)) ** 2, rel=1e-12)
            assert abs(math.sqrt(self.CONST + got)
                       - math.hypot(FIG3.mbar, dc.dn(FIG3, n))) <= 1e-12

    def test_empty_window(self):
        # between level 0 (eps = -4) and level 1 (eps = -1)
        assert orc.dirac_spectrum_scan(FIG3, (-3.9, -1.1)) == []

    def test_matches_the_grid_reference(self):
        found = orc.dirac_spectrum_scan(FIG3, self.WINDOW)
        ref = ref_scan_levels(FIG3, self.WINDOW)
        assert len(found) == len(ref) == 7
        assert max(abs(x - y) for x, y in zip(found, ref)) <= 1e-4

    @pytest.mark.parametrize("a", [1e-8, 1e-3, 0.3, 0.49])
    def test_small_a_finds_level_0_in_channel_a_minus_half(self, a):
        # k = a - 1/2 > -1/2 keeps 2k > -1, so the basis imposes rho^a and
        # the scan finds level 0 there, and levels 1 and 2 in both channels
        params = DiracParams(a=a, b=0.9, d0=-0.4, mbar=0.6)
        eps = [-(params.b / (a + n)) ** 2 for n in range(4)]
        found = orc.dirac_spectrum_scan(params, (1.05 * eps[0], 0.5 * (eps[2] + eps[3])))
        expect = [eps[0], eps[1], eps[1], eps[2], eps[2]]
        assert len(found) == len(expect)
        assert max(abs(x - y) / abs(y) for x, y in zip(found, expect)) <= 1e-6


# The sets CI runs verify at (tests/test_cli.py CI_SETS), the defaults first.
CI_VERIFY_SETS = [(1.5, 0.5, (1.0, 2.0, 1.0, 0.1))] + [
    (q[0], q[1], q) for q in [(1.0, 2.0, 1.0, 0.1), (1.2, 0.8, 0.4, 0.2),
                              (0.5764322215230082, 2.1485527100721353, 1.0, 0.1),
                              (0.5, 2.0, 0.1, 0.2), (2.3, 0.45, -0.7, 1.1),
                              (1.3, 0.9, -0.4, 0.6)]]


def _twin_windows(nr_params, dirac_params):
    """(the scalar twin, its epsilon window, the Dirac twin, its eps window):
    verify's oracle rows at the b = 1 twins."""
    p, q = b1_twin(nr_params), b1_twin(dirac_params)
    eps = [nr.spectrum_radial(p, n) for n in range(4)]
    deps = [-(q.b / (q.a + n)) ** 2 for n in range(4)]
    return (p, (1.05 * eps[0], 0.5 * (eps[2] + eps[3])),
            q, (1.05 * deps[0], 0.5 * (deps[2] + deps[3])))


@pytest.mark.parametrize("a, b, dirac", CI_VERIFY_SETS)
def test_ritz_levels_match_the_grid_reference_at_the_ci_sets(a, b, dirac):
    # within the reference's own budget, RICHARDSON_SHIFT in b^2 units
    p, window, q, dwindow = _twin_windows(NRParams(a, b), DiracParams(*dirac))
    for found, ref in ((orc.fd_schrodinger_eigs(p, window), ref_scalar_levels(p, window)),
                       (orc.dirac_spectrum_scan(q, dwindow), ref_scan_levels(q, dwindow))):
        assert len(found) == len(ref) in (3, 5)
        assert max(abs(x - y) for x, y in zip(found, ref)) <= 1e-4


def _twin_solves(nr_params, dirac_params):
    """(d, e, keywords, result) of every solve the grid reference makes at
    the b = 1 twins with verify's windows: the scalar channel and the scan's
    channels, each at N and 2N - 1 points."""
    calls = []
    solve = orc.eigh_tridiagonal

    def recorded(d, e, **kwargs):
        calls.append((d, e, kwargs, solve(d, e, **kwargs)))
        return calls[-1][-1]
    orc.eigh_tridiagonal = recorded
    try:
        p, window, q, dwindow = _twin_windows(nr_params, dirac_params)
        ref_scalar_levels(p, window)
        ref_scan_levels(q, dwindow)
    finally:
        orc.eigh_tridiagonal = solve
    return calls


def _hex(values):
    return [float(x).hex() for x in values]


class TestBundledLapack:
    """The dstebz of numpy's bundled OpenBLAS against scipy.linalg.eigh_tridiagonal,
    the reference, on the grid reference's matrices."""

    def assert_matches_scipy(self, calls):
        from scipy.linalg import eigh_tridiagonal
        for d, e, kwargs, found in calls:
            assert _hex(found) == _hex(eigh_tridiagonal(d, e, **kwargs)), len(d)

    @pytest.mark.parametrize("a, b, dirac", CI_VERIFY_SETS)
    def test_equals_scipy_bit_for_bit_at_the_ci_sets(self, a, b, dirac):
        calls = _twin_solves(NRParams(a, b), DiracParams(*dirac))
        # one scalar channel and two Dirac channels, each at N and 2N - 1
        assert len(calls) == 6
        self.assert_matches_scipy(calls)

    def test_equals_scipy_bit_for_bit_at_random_twins(self):
        rng = np.random.default_rng(44)
        calls = [c for _ in range(50)
                 for c in _twin_solves(vf.random_nr(rng), vf.random_dirac(rng))]
        assert len(calls) >= 200
        self.assert_matches_scipy(calls)

    def test_scipy_is_the_fallback(self, monkeypatch):
        # where numpy ships no bundled LAPACK, the reference runs on scipy's
        from scipy.linalg import eigh_tridiagonal
        p, window, q, dwindow = _twin_windows(NRParams(1.5, 0.5), DiracParams(1.0, 2.0, 1.0, 0.1))
        bundled = ref_scalar_levels(p, window), ref_scan_levels(q, dwindow)
        monkeypatch.setattr(orc, "_bundled_dstebz", lambda: None)
        solve, lapack = orc._load_solver()
        assert solve is eigh_tridiagonal and lapack == "scipy fallback"
        monkeypatch.setattr(orc, "eigh_tridiagonal", solve)
        assert (ref_scalar_levels(p, window), ref_scan_levels(q, dwindow)) == bundled

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["d", "e"])
    def test_non_finite_input_raises_scipys_error(self, bad, which):
        from scipy.linalg import eigh_tridiagonal
        d, e = np.full(64, 2.0), np.full(63, -1.0)
        (d if which == "d" else e)[5] = bad
        kwargs = {"eigvals_only": True, "tol": BISECTION_TOL, "select": "v",
                  "select_range": (0.0, 1.0)}
        with pytest.raises(ValueError) as ours:
            orc.eigh_tridiagonal(d, e, **kwargs)
        with pytest.raises(ValueError) as ref:
            eigh_tridiagonal(d, e, **kwargs)
        assert str(ours.value) == str(ref.value) == "array must not contain infs or NaNs"

    @pytest.mark.parametrize("info", [-4, 1, 3])
    def test_nonzero_info_raises_linalg_error(self, info):
        def dstebz(*args):
            args[17].value = info  # INFO
        solve = orc._bound_solver(dstebz)
        with pytest.raises(np.linalg.LinAlgError, match=f"info={info}"):
            solve(np.full(64, 2.0), np.full(63, -1.0), eigvals_only=True,
                  tol=BISECTION_TOL, select="v", select_range=(0.0, 1.0))


class TestQuadrature:
    def test_matches_gamma_inner_products(self):
        grid = orc.LogGrid(default_rho_max(FIG2, 3), 1024)
        pts = grid.points
        fs = [nr.eigenfunction(FIG2, n) for n in range(4)]
        for i in range(4):
            for j in range(4):
                exact = fs[i].inner_product(fs[j])
                approx = orc.quad_inner(fs[i].eval_array(pts),
                                        fs[j].eval_array(pts), grid)
                scale = math.sqrt(fs[i].inner_product(fs[i]).real
                                  * fs[j].inner_product(fs[j]).real)
                assert abs(exact - approx) <= 1e-8 * scale

    def test_self_inner_real_nonnegative(self):
        grid = orc.LogGrid(default_rho_max(FIG2, 1), 1024)
        f = nr.eigenfunction(FIG2, 1).eval_array(grid.points)
        val = orc.quad_inner(f, f, grid)
        assert abs(val.imag) <= 1e-15 * abs(val)
        assert val.real > 0

    def test_tail_guard(self):
        grid = orc.LogGrid(8.0, 1024)  # far too short for the tail
        f = nr.eigenfunction(FIG2, 0).eval_array(grid.points)
        with pytest.raises(TailNotDecayed):
            orc.quad_inner(f, f, grid)

    def test_refuses_a_grid_uniform_in_rho(self):
        grid = orc.default_grid(FIG2, 3, 1024)
        f = nr.eigenfunction(FIG2, 0).eval_array(grid.points)
        with pytest.raises(TypeError, match="LogGrid"):
            orc.quad_inner(f, f, grid)

    def test_trapezoid_in_ln_rho_converges_exponentially(self):
        # int_0^60 rho^2 e^(-rho): 1.5 times the points takes the error from
        # 6.6e-10 to roundoff, where an h^4 rule would gain a factor of 5
        exact = 2.0 - math.exp(-60.0) * (60.0 ** 2 + 2 * 60.0 + 2)
        errs = []
        for n in (64, 96):
            grid = orc.LogGrid(60.0, n)
            half = grid.points * np.exp(-grid.points / 2.0)
            errs.append(abs(orc.quad_inner(half, half, grid).real - exact))
        assert errs[0] <= 1e-8
        assert errs[1] <= 1e-4 * errs[0]
