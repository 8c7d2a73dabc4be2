"""Tests of the finite-difference oracle: eigenvalue solves, residual
stencils, the squared-operator spectrum scan, and trapezoid quadrature in
ln rho."""

import math

import numpy as np
import pytest
from conftest import residual_scalar

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder import oracle as orc
from susy_ladder.errors import GridTooCoarse, TailNotDecayed
from susy_ladder.params import DiracParams, NRParams, default_rho_max

FIG2 = NRParams(1.5, 0.5)
FIG3 = DiracParams(a=1.0, b=2.0, d0=1.0, mbar=0.1)
# epsilon window holding levels 0, 1 and 2 of FIG2 (-0.02, -0.0102, -0.0062)
FIG2_WINDOW = (-0.021, -0.005)


def raw_scalar(params, window, grid):
    """One unrefined scalar solve: the channel k = a + 1/2's eps = 2 epsilon
    inside the doubled window, halved."""
    lo, hi = window
    return 0.5 * orc._channel_eigs(params.a + 0.5, params.b, grid, select="v",
                                   select_range=(2 * lo, 2 * hi))


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


class TestLogGrid:
    def test_refinement_halves_the_step(self):
        # 2N - 1 points on the same window: h halves exactly, and every
        # coarse point is a fine one
        seen = []
        orc._refined(lambda g: seen.append(g) or [0.0], orc.LogGrid(100.0, 1024))
        coarse, fine = seen
        assert fine.h == pytest.approx(coarse.h / 2, rel=1e-14)
        assert np.allclose(fine.points[::2], coarse.points, rtol=1e-12)


class TestScalarEigs:
    def test_fig2_first_levels(self):
        grid = orc.LogGrid(default_rho_max(FIG2, 3), 1024)
        fd = orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW, grid)
        assert len(fd) == 3
        assert fd[0] == pytest.approx(-0.02, abs=1e-5)
        assert fd[1] == pytest.approx(-0.0102041, abs=1e-5)
        assert fd[2] == pytest.approx(-0.00617284, abs=1e-5)
        assert fd == sorted(fd)

    def test_a_short_grid_drops_a_level_from_the_count(self):
        # the Dirichlet end at rho = 50 pushes level 2 out of the window
        small = orc.LogGrid(50.0, 1024)
        assert len(orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW, small)) == 2

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="lo < hi"):
            orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW[::-1], orc.LogGrid(440.0, 1024))

    def test_grid_too_coarse(self):
        # 64 log-grid points over a 440-wide box move level 2 by 3.0e-4
        grid = orc.LogGrid(440.0, 64)
        with pytest.raises(GridTooCoarse, match="2.985e-04"):
            orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW, grid)

    def test_richardson_refuses_a_grid_off_the_origin(self):
        # a grid uniform in rho leaves a wall at rho_min whose error does not
        # shrink with h; the scalar solve runs on a LogGrid only
        grid = orc.default_grid(FIG2, 3, 4096)
        with pytest.raises(TypeError, match="LogGrid"):
            orc.fd_schrodinger_eigs(FIG2, FIG2_WINDOW, grid)

    def test_richardson_value_on_a_log_grid(self):
        # fig3's (a, b): every requested level is refined, and the Richardson
        # value beats the raw solve on each
        params = NRParams(1.0, 2.0)
        grid = orc.LogGrid(default_rho_max(params, 3), 1024)
        window = (-0.6, -0.1)  # levels -1/2, -2/9 and -1/8
        raw = raw_scalar(params, window, grid)
        rich = orc.fd_schrodinger_eigs(params, window, grid)
        assert len(raw) == len(rich) == 3
        for n in range(3):
            exact = nr.spectrum_radial(params, n)
            assert abs(rich[n] - exact) <= 1e-8
            assert abs(rich[n] - exact) < abs(raw[n] - exact)

    def test_the_shared_window_holds_three_levels(self):
        # default_rho_max(params, 3) at 256 points, with verify's window rule
        params = NRParams(0.17087189561177435, 0.09875652480916083)
        grid = orc.LogGrid(default_rho_max(params, 3), 256)
        eps = [nr.spectrum_radial(params, n) for n in range(4)]
        window = (1.05 * eps[0], 0.5 * (eps[2] + eps[3]))
        assert len(orc.fd_schrodinger_eigs(params, window, grid)) == 3

    def test_second_order_convergence(self):
        # 1024, 2047 and 4093 points halve the step exactly
        exact = nr.spectrum_radial(FIG2, 0)
        errs = [raw_scalar(FIG2, (-0.021, -0.019), orc.LogGrid(280.0, n))[0] - exact
                for n in (1024, 2047, 4093)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.5 <= r1 <= 4.5
        assert 3.5 <= r2 <= 4.5


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
    RHO_MAX = 40.0 * (FIG3.a + 4) / FIG3.b
    CONST = (FIG3.b / FIG3.a) ** 2 + FIG3.d0 ** 2 + FIG3.mbar ** 2
    # eps = E^2 - C from the magnitudes 0.9 and 2.2: levels 0..3 of fig3
    WINDOW = (0.9 ** 2 - CONST, 2.2 ** 2 - CONST)

    def test_fig3_window(self):
        grid = orc.LogGrid(self.RHO_MAX, 2048)
        found = orc.dirac_spectrum_scan(FIG3, self.WINDOW, grid)
        # analytic content of the window: level 0 once, levels 1..3 twice,
        # each at the Coulomb level eps = -b^2/(a+n)^2
        expect = [n for n in range(4) for _ in range(1 if n == 0 else 2)]
        assert len(found) == len(expect)
        for got, n in zip(found, expect):
            assert abs(got + (FIG3.b / (FIG3.a + n)) ** 2) <= 1e-8
            assert abs(math.sqrt(self.CONST + got)
                       - math.hypot(FIG3.mbar, dc.dn(FIG3, n))) <= 1e-3

    def test_empty_window(self):
        # between level 0 (eps = -4) and level 1 (eps = -1)
        grid = orc.LogGrid(self.RHO_MAX, 1024)
        assert orc.dirac_spectrum_scan(FIG3, (-3.9, -1.1), grid) == []

    def test_refinement_stability(self):
        first = orc.dirac_spectrum_scan(FIG3, self.WINDOW, orc.LogGrid(self.RHO_MAX, 2048))
        fine_grid = orc.LogGrid(self.RHO_MAX, 4096)
        finer = sorted(x for k in (FIG3.a - 0.5, FIG3.a + 0.5) for x in orc._channel_eigs(
            k, FIG3.b, fine_grid, select="v", select_range=self.WINDOW))
        assert len(first) == len(finer)
        assert max(abs(x - y) for x, y in zip(first, finer)) <= 1e-4

    def test_refuses_a_grid_uniform_in_rho(self):
        with pytest.raises(TypeError, match="LogGrid"):
            orc.dirac_spectrum_scan(FIG3, self.WINDOW,
                                    orc.RadialGrid(1e-3 * self.RHO_MAX, self.RHO_MAX, 2048))

    @pytest.mark.parametrize("a", [0.3, 0.49])
    def test_small_a_solves_the_k_a_plus_half_channel_alone(self, a):
        # k = a - 1/2 < 0 is a limit-circle channel whose ghost row does not
        # pin rho^a; level 0 lives there alone, so the window holds levels 1
        # and 2 once each
        params = DiracParams(a=a, b=0.9, d0=-0.4, mbar=0.6)
        grid = orc.LogGrid(default_rho_max(params, 3), 2048)
        eps = [-(params.b / (a + n)) ** 2 for n in range(4)]
        found = orc.dirac_spectrum_scan(params, (1.05 * eps[0], 0.5 * (eps[2] + eps[3])), grid)
        assert len(found) == 2
        assert max(abs(x - y) for x, y in zip(found, eps[1:3])) <= 1e-8

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
        grid = orc.LogGrid(self.RHO_MAX, 256)
        lo, hi = -10.0, -0.3
        for a in (FIG3.a, 0.3):
            for cf, k in ((a * (a - 1), a - 0.5), (a * (a + 1), a + 0.5)):
                eps = self.dense_channel(cf, k, FIG3.b, grid)
                expect = eps[(eps >= lo) & (eps <= hi)]
                found = orc._channel_eigs(k, FIG3.b, grid, select="v", select_range=(lo, hi))
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
