"""Tests of the scalar hierarchy: superpotentials, factorization energies,
ladder kernels, eigenfunction chains, spectra, and physical-unit maps."""

import math

import numpy as np
import pytest
from conftest import random_nr, random_phys, random_poly, rng_for

from susy_ladder import nonrel as nr
from susy_ladder.errors import DomainError, NoBoundStates
from susy_ladder.expalg import ExpoPoly
from susy_ladder.params import NRParams, PhysicalParams, default_rho_max

FIG2 = NRParams(1.5, 0.5)
SETS = (FIG2, NRParams(1.0, 2.0), NRParams(0.4, 2.5))  # the figure regimes and an a < 0.5 set


def coeffs(poly):
    return {(j, k): coeff for j, k, coeff in poly.terms}


class TestSuperpotential:
    def test_fig2_level_one(self):
        w = nr.superpotential(FIG2, 1)
        assert coeffs(w) == {(-1, None): pytest.approx(2.5),
                             (0, None): pytest.approx(-0.2)}

    def test_small_b_limit(self):
        w = nr.superpotential(NRParams(1.0, 1e-14), 1)
        assert w.eval(1.0).real == pytest.approx(2.0, abs=1e-13)

    def test_direct_substitution(self):
        w = nr.superpotential(NRParams(1.0, 2.0), 2)
        assert coeffs(w) == {(-1, None): pytest.approx(3.0),
                             (0, None): pytest.approx(-2.0 / 3.0)}

    def test_equals_ground_state_log_derivative(self):
        # clearing the single-term denominator: g' = W_{n+1} g
        for n in range(0, 3):
            g = nr.ground_state(FIG2, n)
            w = nr.superpotential(FIG2, n + 1)
            assert (g.differentiate() - g.mul_laurent(w)).is_zero(1e-13)


class TestFactorizationEnergy:
    def test_fig2_values(self):
        assert nr.factorization_energy(FIG2, 1) == pytest.approx(-0.02)
        assert nr.factorization_energy(FIG2, 2) == pytest.approx(-0.25 / 24.5)

    def test_small_b_limit(self):
        assert nr.factorization_energy(NRParams(2.0, 1e-12), 1) == pytest.approx(0.0, abs=1e-24)

    def test_strictly_increasing(self):
        rng = rng_for(20)
        for _ in range(10):
            p = random_nr(rng)
            vals = [nr.factorization_energy(p, n) for n in range(1, 8)]
            assert all(x < 0 for x in vals)
            assert all(x < y for x, y in zip(vals, vals[1:]))


class TestPotential:
    def test_fig2_levels(self):
        assert coeffs(nr.potential(FIG2, 0)) == {
            (-2, None): pytest.approx(1.875), (-1, None): pytest.approx(-0.5)}
        assert coeffs(nr.potential(FIG2, 1)) == {
            (-2, None): pytest.approx(4.375), (-1, None): pytest.approx(-0.5)}

    def test_shape_invariance_parameter_shift(self):
        # level n+1 at strength a matches level n at strength a+1, term by term
        rng = rng_for(21)
        for _ in range(5):
            p = random_nr(rng)
            shifted = NRParams(p.a + 1, p.b)
            for n in range(0, 3):
                assert coeffs(nr.potential(p, n + 1)) == pytest.approx(
                    coeffs(nr.potential(shifted, n)))

    def test_partner_remainder_is_energy_difference(self):
        # (W_{n+1}^2 + W_{n+1}')/2 = (W_n^2 - W_n')/2 + (eps_n - eps_{n+1})
        rng = rng_for(22)
        for _ in range(5):
            p = random_nr(rng)
            for n in range(1, 4):
                wa = nr.superpotential(p, n + 1)
                wb = nr.superpotential(p, n)
                lhs = (wa.mul_laurent(wa) + wa.differentiate()).scale(0.5)
                rhs = (wb.mul_laurent(wb) - wb.differentiate()).scale(0.5)
                rem = (nr.factorization_energy(p, n)
                       - nr.factorization_energy(p, n + 1))
                diff = lhs - rhs - ExpoPoly.term(p.a, p.b, rem)
                assert diff.is_zero(1e-12)


class TestGroundState:
    def test_fig2_form(self):
        g = nr.ground_state(FIG2, 0)
        assert coeffs(g) == {(1, 1): pytest.approx(1.0)}
        assert g.eval(2.0) == pytest.approx(2.0 ** 2.5 * math.exp(-0.2 * 2.0))

    def test_annihilated_by_raising_operator(self):
        rng = rng_for(23)
        for _ in range(5):
            p = random_nr(rng)
            for n in range(0, 4):
                op = nr.ladder(p, n + 1, "creation")
                assert op.apply(nr.ground_state(p, n)).is_zero(1e-12)

    def test_eigenstate_of_its_level(self):
        for n in range(0, 4):
            g = nr.ground_state(FIG2, n)
            eps = nr.factorization_energy(FIG2, n + 1)
            r = nr.apply_hamiltonian(FIG2, n, g) - g.scale(eps)
            assert r.is_zero(1e-13)


class TestLadderAlgebra:
    def test_riccati_residual_zero(self):
        rng = rng_for(24)
        assert nr.riccati_residual(FIG2, 1).is_zero(1e-12)
        assert nr.riccati_residual(NRParams(1.0, 2.0), 3).is_zero(1e-12)
        for _ in range(20):
            p = random_nr(rng)
            for n in range(1, 5):
                assert nr.riccati_residual(p, n).is_zero(1e-12)

    def test_factorization_identity(self):
        # H_{n-1} = A_n A_n^+ + eps_n  and  H_n = A_n^+ A_n + eps_n
        rng = rng_for(25)
        for _ in range(8):
            p = random_nr(rng)
            f = random_poly(rng, p.a, p.b)
            for n in range(1, 5):
                up = nr.ladder(p, n, "creation")
                down = nr.ladder(p, n, "annihilation")
                eps = nr.factorization_energy(p, n)
                r1 = (nr.apply_hamiltonian(p, n - 1, f)
                      - down.apply(up.apply(f)) - f.scale(eps))
                r2 = (nr.apply_hamiltonian(p, n, f)
                      - up.apply(down.apply(f)) - f.scale(eps))
                assert r1.is_zero(1e-11)
                assert r2.is_zero(1e-11)

    def test_intertwining_identity(self):
        # H_{n+1} A_{n+1}^+ = A_{n+1}^+ H_n on random algebra elements
        rng = rng_for(26)
        for _ in range(8):
            p = random_nr(rng)
            f = random_poly(rng, p.a, p.b)
            for n in range(0, 5):
                up = nr.ladder(p, n + 1, "creation")
                r = (nr.apply_hamiltonian(p, n + 1, up.apply(f))
                     - up.apply(nr.apply_hamiltonian(p, n, f)))
                assert r.is_zero(1e-11)

    def test_norm_ladder(self):
        # |A_n^+ psi|^2 = (E - eps_n) |psi|^2 on computed eigenpairs of H_0
        for n in range(0, 5):
            psi = nr.eigenfunction(FIG2, n)
            up = nr.ladder(FIG2, 1, "creation")
            lhs = up.apply(psi).inner_product(up.apply(psi)).real
            gap = nr.spectrum_radial(FIG2, n) - nr.factorization_energy(FIG2, 1)
            rhs = gap * psi.inner_product(psi).real
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_hamiltonian_on_zero(self):
        z = ExpoPoly.zero(FIG2.a, FIG2.b)
        assert nr.apply_hamiltonian(FIG2, 0, z).is_zero(1e-15)


class TestEigenfunctions:
    def test_level_zero_is_ground_state(self):
        assert nr.eigenfunction(FIG2, 0) == nr.ground_state(FIG2, 0)

    def test_term_structure(self):
        # n+1 terms rho^(a+1+j) e^(-b rho/(a+n+1)), j = 0..n. Above level 6
        # the coefficients span more than 13 decades; every one is a real term.
        for params in SETS:
            for n in range(0, 13):
                f = nr.eigenfunction(params, n)
                keys = {(j, k) for j, k, _ in f.terms}
                assert keys == {(1 + j, n + 1) for j in range(n + 1)}

    def test_eigen_equation_exact(self):
        # residual measured against the chain's own coefficient scale, which
        # grows factorially with the level
        for n in range(0, 7):
            f = nr.eigenfunction(FIG2, n)
            r = nr.apply_hamiltonian(FIG2, 0, f) - f.scale(nr.spectrum_radial(FIG2, n))
            assert r.max_abs_coeff() <= 1e-11 * max(1.0, f.max_abs_coeff())

    def test_first_excited_from_single_lowering(self):
        direct = nr.ladder(FIG2, 1, "annihilation").apply(nr.ground_state(FIG2, 1))
        assert (direct - nr.eigenfunction(FIG2, 1)).is_zero(1e-13)

    def test_node_counts(self):
        for params in SETS:
            for n in range(0, 13):
                assert len(nr.eigenfunction_nodes(params, n)) == n

    def test_node_on_a_sample_counted_once(self):
        # The fig2 level-1 node, rho = (a+1)(a+2)/b = 17.5, is sample 256 of
        # the 4096 on (0, 280], and Re f is exactly zero there.
        f = nr.eigenfunction(FIG2, 1)
        xs = np.linspace(280.0 / 4096, 280.0, 4096)
        assert f.eval_array(xs).real[255] == 0.0
        assert nr.interior_zeros(f, 280.0) == [pytest.approx(17.5, rel=1e-15)]
        # rho - 2 on (0, 8] vanishes exactly at sample 1024 and nowhere else.
        g = ExpoPoly.sum(FIG2.a, FIG2.b, [ExpoPoly.term(FIG2.a, FIG2.b, -2.0),
                                          ExpoPoly.term(FIG2.a, FIG2.b, 1.0, j=1)])
        assert np.count_nonzero(g.eval_array(np.linspace(8.0 / 4096, 8.0, 4096)) == 0) == 1
        assert nr.interior_zeros(g, 8.0) == [pytest.approx(2.0, rel=1e-15)]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_node_counts_hold_at_any_scale(self, scale):
        # The product of two neighbouring samples underflows to 0 at 1e-170,
        # which hides every node, and overflows at 1e170 with a
        # RuntimeWarning; their signs do neither. Scaling moves a sample
        # that was exactly zero, so a node may move by one sample spacing.
        for n in (1, 2, 3):
            f = nr.eigenfunction(FIG2, n)
            rho_max = default_rho_max(FIG2, n)
            zeros = nr.interior_zeros(f, rho_max)
            assert len(zeros) == n
            assert (nr.interior_zeros(f.scale(scale), rho_max)
                    == pytest.approx(zeros, abs=rho_max / 4096))

    def test_interior_zeros_rejects_a_window_that_is_not_finite_and_positive(self):
        # A NaN or infinite end gives NaN samples, which have no sign change
        # and would read as no nodes.
        f = nr.eigenfunction(FIG2, 3)
        for rho_max in (math.nan, math.inf, -1.0):
            with pytest.raises(DomainError, match="rho_max"):
                nr.interior_zeros(f, rho_max)

    def test_orthogonality(self):
        fs = [nr.eigenfunction(FIG2, n) for n in range(6)]
        norms = [math.sqrt(f.inner_product(f).real) for f in fs]
        for i in range(6):
            for j in range(6):
                if i != j:
                    overlap = abs(fs[i].inner_product(fs[j]))
                    assert overlap <= 1e-9 * norms[i] * norms[j]

    def test_normalize(self):
        f = nr.normalize(nr.eigenfunction(FIG2, 2))
        assert f.inner_product(f).real == pytest.approx(1.0, rel=1e-12)


class TestSpectra:
    def test_fig2_radial_values(self):
        expect = [-0.02, -0.25 / 24.5, -0.25 / 40.5]
        for n, x in enumerate(expect):
            assert nr.spectrum_radial(FIG2, n) == pytest.approx(x, rel=1e-14)

    def test_monotone_accumulating_at_zero(self):
        vals = [nr.spectrum_radial(FIG2, n) for n in range(40)]
        assert all(x < y < 0 for x, y in zip(vals, vals[1:]))
        assert vals[-1] > -1e-3

    def test_matches_fd_oracle(self):
        from susy_ladder import oracle as orc
        fd = orc.fd_schrodinger_eigs(FIG2, (-0.021, -0.005))
        assert len(fd) == 3
        for n in range(3):
            assert fd[n] == pytest.approx(nr.spectrum_radial(FIG2, n), rel=1e-12)


class TestPhysicalSpectrum:
    def test_example_point(self):
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=1, pz=1, ell=0)
        assert nr.spectrum_physical(phys, 0) == pytest.approx(5.0 / 18.0, rel=1e-14)

    def test_two_routes_agree(self):
        rng = rng_for(27)
        for _ in range(30):
            phys = random_phys(rng)
            p = phys.to_nr()
            for n in range(0, 6):
                direct = nr.spectrum_physical(phys, n)
                via_radial = (phys.hbar ** 2 / phys.m) * nr.spectrum_radial(p, n) \
                    + phys.pz ** 2 / (2 * phys.m)
                assert direct == pytest.approx(via_radial, rel=1e-12)

    def test_small_k_limit(self):
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=1e-12, pz=1, ell=1)
        assert nr.spectrum_physical(phys, 0) == pytest.approx(0.5, rel=1e-12)

    def test_no_bound_states(self):
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=-1, pz=1, ell=0)
        with pytest.raises(NoBoundStates):
            nr.spectrum_physical(phys, 0)
        with pytest.raises(NoBoundStates):
            phys.to_nr()
