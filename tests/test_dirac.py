"""Tests of the matrix hierarchy: level constants, operators, kernel spinors,
the four eigenvector families, lowering chains, and physical spectra."""

import math

import numpy as np
import pytest
from conftest import (bits, exact_departure, hex_matrix, potential_at, random_dirac,
                      random_phys, random_spinor, ref_apply, ref_dcoefs, ref_exact_chain,
                      ref_ladder, ref_matrices, ref_superpotential_matrix_residual, rng_for,
                      spinor_at)

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder import verify as vf
from susy_ladder.errors import ContextMismatch, DomainError, NoBoundStates
from susy_ladder.params import DiracParams, NRParams, PhysicalParams, default_rho_max

FIG3 = DiracParams(a=1.0, b=2.0, d0=1.0, mbar=0.1)
S1, S2, S3 = (ref_matrices()[name] for name in ("S1", "S2", "S3"))


class TestLevelConstants:
    def test_fig3_values(self):
        assert dc.dn(FIG3, 0) == 1.0
        assert dc.dn(FIG3, 1) == pytest.approx(2.0, rel=1e-14)
        assert dc.dn(FIG3, 2) ** 2 == pytest.approx(41.0 / 9.0, rel=1e-14)

    def test_sign_follows_d0(self):
        neg = DiracParams(a=1.0, b=2.0, d0=-1.0, mbar=0.1)
        assert dc.dn(neg, 1) == pytest.approx(-2.0, rel=1e-14)
        zero = DiracParams(a=1.0, b=2.0, d0=0.0, mbar=0.1)
        assert dc.dn(zero, 0) == 0.0
        assert dc.dn(zero, 1) > 0

    def test_magnitude_nondecreasing(self):
        rng = rng_for(30)
        for _ in range(10):
            p = random_dirac(rng)
            mags = [abs(dc.dn(p, n)) for n in range(8)]
            assert all(x <= y + 1e-15 for x, y in zip(mags, mags[1:]))


class TestOperators:
    def test_h0_printed_coefficients(self):
        op = dc.h_operator(FIG3, 0)
        assert np.allclose(op.dcoef, -1j * S1)
        # potential at rho=1: (a/1 - b/a) s2 + d0 s3 = -s2 + s3
        assert np.allclose(potential_at(op, 1.0), -S2 + S3)

    def test_h1_potential_sample(self):
        # (2/1 - 2/2) s2 + d1 s3 = s2 + 2 s3 at rho=1
        op = dc.h_operator(FIG3, 1)
        assert np.allclose(potential_at(op, 1.0), S2 + 2.0 * S3)

    def test_h_formally_self_adjoint_by_quadrature(self):
        from susy_ladder.oracle import LogGrid, quad_inner
        rng = rng_for(31)
        grid = LogGrid(default_rho_max(FIG3, 4), 2048)
        pts = grid.points
        h0 = dc.h_operator(FIG3, 0)
        for _ in range(3):
            f = random_spinor(rng, FIG3.a, FIG3.b, 2)
            g = random_spinor(rng, FIG3.a, FIG3.b, 2)
            hf, hg = h0.apply(f), h0.apply(g)
            lhs = sum(quad_inner(hf.components[i].eval_array(pts),
                                 g.components[i].eval_array(pts), grid)
                      for i in range(2))
            rhs = sum(quad_inner(f.components[i].eval_array(pts),
                                 hg.components[i].eval_array(pts), grid)
                      for i in range(2))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-8 * scale

    def test_block_structure(self):
        op = dc.big_hamiltonian(FIG3, 2)
        # top-right block equals bottom-left block
        for i in range(2):
            for j in range(2):
                assert op.potential[i][j + 2] == op.potential[i + 2][j]
        massless = dc.big_hamiltonian(DiracParams(1.0, 2.0, 1.0, 0.0), 0)
        pot = potential_at(massless, 1.5)
        beta = np.diag([1.0, 1.0, -1.0, -1.0])
        assert np.allclose(beta @ pot + pot @ beta, 0.0)
        assert np.allclose(beta @ massless.dcoef + massless.dcoef @ beta, 0.0)

    def test_b_dagger_identity_coefficient_example(self):
        # (3/2)(1 - 2/2) = 0: the s0 part of the potential vanishes at rho=1
        pot = potential_at(dc.b_dagger(FIG3, 0), 1.0)
        s0_coef = 0.5 * (pot[0, 0] + pot[1, 1])
        s3_coef = 0.5 * (pot[0, 0] - pot[1, 1])
        assert abs(s0_coef - 0.0) < 1e-14
        assert s3_coef == pytest.approx(-0.5 * (1.0 + 2.0 / 2.0), rel=1e-14)

    def test_adjoint_pair_by_quadrature(self):
        from susy_ladder.oracle import LogGrid, quad_inner
        rng = rng_for(32)
        grid = LogGrid(default_rho_max(FIG3, 4), 2048)
        pts = grid.points
        ad, aop = dc.a_dagger(FIG3, 0), dc.a_op(FIG3, 0)
        f = random_spinor(rng, FIG3.a, FIG3.b, 4)
        g = random_spinor(rng, FIG3.a, FIG3.b, 4)
        adf, ag = ad.apply(f), aop.apply(g)
        lhs = sum(quad_inner(adf.components[i].eval_array(pts),
                             g.components[i].eval_array(pts), grid) for i in range(4))
        rhs = sum(quad_inner(f.components[i].eval_array(pts),
                             ag.components[i].eval_array(pts), grid) for i in range(4))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_a_dagger_blocks_do_not_mix(self):
        from susy_ladder.expalg import ExpoPoly
        rng = rng_for(33)
        f = random_spinor(rng, FIG3.a, FIG3.b, 2)
        z = ExpoPoly.zero(FIG3.a, FIG3.b)
        upper = dc.SpinorFn((f.components[0], f.components[1], z, z))
        out = dc.a_dagger(FIG3, 0).apply(upper)
        assert out.components[2].is_zero(1e-14)
        assert out.components[3].is_zero(1e-14)


class TestIntertwining:
    def test_two_by_two(self):
        rng = rng_for(34)
        for _ in range(8):
            p = random_dirac(rng)
            f = random_spinor(rng, p.a, p.b, 2)
            for n in range(0, 4):
                bd = dc.b_dagger(p, n)
                r = (dc.h_operator(p, n + 1).apply(bd.apply(f))
                     - bd.apply(dc.h_operator(p, n).apply(f)))
                assert r.is_zero(1e-11)

    def test_four_by_four(self):
        rng = rng_for(35)
        for _ in range(8):
            p = random_dirac(rng)
            f = random_spinor(rng, p.a, p.b, 4)
            for n in range(0, 4):
                ad = dc.a_dagger(p, n)
                r = (dc.big_hamiltonian(p, n + 1).apply(ad.apply(f))
                     - ad.apply(dc.big_hamiltonian(p, n).apply(f)))
                assert r.is_zero(1e-11)


class TestKernels:
    def test_annihilation_exact(self):
        rng = rng_for(36)
        for _ in range(10):
            p = random_dirac(rng)
            for n in range(0, 5):
                bd = dc.b_dagger(p, n)
                assert bd.apply(dc.kernel_chi(p, n)).is_zero(1e-11)
                assert bd.apply(dc.kernel_xi(p, n)).is_zero(1e-11)

    def test_no_third_kernel_direction(self):
        # probes with the off-family decay rate b/(a+n+2) are not annihilated
        from susy_ladder.expalg import ExpoPoly
        for n in range(0, 3):
            bd = dc.b_dagger(FIG3, n)
            probe_poly = ExpoPoly.term(FIG3.a, FIG3.b, 1.0, mu=1, j=n, k=n + 2)
            z = ExpoPoly.zero(FIG3.a, FIG3.b)
            for probe in (dc.SpinorFn((probe_poly, z)), dc.SpinorFn((z, probe_poly))):
                image = bd.apply(probe)
                assert not image.is_zero(1e-6)
                xs = np.linspace(0.1, 20.0, 200)
                sampled = np.abs(image.eval_array(xs))
                assert float(sampled.max()) > 1e-3

    def test_chi_xi_independent(self):
        chi, xi = dc.kernel_chi(FIG3, 0), dc.kernel_xi(FIG3, 0)
        m = np.stack([spinor_at(chi, 1.0), spinor_at(xi, 1.0)], axis=1)
        assert abs(np.linalg.det(m)) > 1e-3


class TestEigenvectors:
    def test_eigen_equations_all_families(self):
        rng = rng_for(37)
        for _ in range(6):
            p = random_dirac(rng)
            h = {n: dc.big_hamiltonian(p, n) for n in range(5)}
            for n in range(0, 5):
                for fam in dc.FAMILIES:
                    vec, value = dc.eigenvector(p, n, fam)
                    r = h[n].apply(vec) - vec.scale(value)
                    scale = max(1.0, vec.max_abs_coeff())
                    assert r.max_abs_coeff() <= 1e-11 * scale

    def test_fig3_eigenvalues(self):
        assert dc.family_eigenvalue(FIG3, 0, "a") == pytest.approx(
            math.sqrt(1.01), rel=1e-14)
        assert dc.family_eigenvalue(FIG3, 0, "c") == pytest.approx(
            math.sqrt(4.01), rel=1e-14)
        assert dc.family_eigenvalue(FIG3, 0, "c") == dc.family_eigenvalue(FIG3, 1, "a")

    def test_degeneracy_ladder_exact(self):
        rng = rng_for(38)
        for _ in range(10):
            p = random_dirac(rng)
            for n in range(0, 5):
                assert (dc.family_eigenvalue(p, n, "c")
                        == dc.family_eigenvalue(p, n + 1, "a"))
                assert (dc.family_eigenvalue(p, n, "d")
                        == dc.family_eigenvalue(p, n + 1, "b"))

    def test_massless_limit(self):
        p = DiracParams(a=1.0, b=2.0, d0=1.0, mbar=0.0)
        vec_a, val_a = dc.eigenvector(p, 1, "a")
        vec_b, val_b = dc.eigenvector(p, 1, "b")
        assert val_a == pytest.approx(abs(dc.dn(p, 1)), rel=1e-14)
        assert val_b == -val_a
        # mirror structure: upper blocks agree, lower blocks are negated
        for i in range(2):
            assert (vec_a.components[i] - vec_b.components[i]).is_zero(1e-13)
            assert (vec_a.components[i + 2] + vec_b.components[i + 2]).is_zero(1e-13)
        # lower block is sign(d_n) * chi
        chi = dc.kernel_chi(p, 1)
        for i in range(2):
            assert (vec_a.components[i + 2] - chi.components[i]).is_zero(1e-13)

    @pytest.mark.parametrize("mbar", [0.5, 0.0])
    def test_d_zero_puts_the_kernel_in_one_half(self, mbar):
        # At d0 = 0, h_0 chi = 0: family a is (chi, 0) at E = +mbar and family
        # b is (0, chi) at E = -mbar, also where both are 0 (mbar = 0).
        p = DiracParams(a=1.0, b=2.0, d0=0.0, mbar=mbar)
        chi = dc.kernel_chi(p, 0)
        zero = dc.SpinorFn(tuple(c.scale(0.0) for c in chi.components))
        h0 = dc.big_hamiltonian(p, 0)
        for fam, value, halves in (("a", mbar, (chi, zero)), ("b", -mbar, (zero, chi))):
            vec, val = dc.eigenvector(p, 0, fam)
            assert val == value
            assert vec.components == halves[0].components + halves[1].components
            assert (h0.apply(vec) - vec.scale(val)).is_zero(1e-13)
        # families c/d, and b at level 1, have d_1 != 0 and keep the kernel on top
        for fam, n in (("c", 0), ("d", 0), ("b", 1)):
            assert dc._weights(p, n, fam)[0] == 1.0


class TestChains:
    def test_level_zero_chain_is_eigenvector(self):
        vec, _ = dc.eigenvector(FIG3, 0, "a")
        chain = dc.eigenfunction_chain(FIG3, 0, "a")
        for i in range(4):
            assert (vec.components[i] - chain.components[i]).is_zero(1e-13)

    @pytest.mark.parametrize("params", [FIG3, DiracParams(1.5, 0.5, 0.0, 0.0),
                                        DiracParams(1.5, 0.5, 0.0, 0.3),
                                        DiracParams(1e-3, 0.9, 0.0, 0.6)],
                             ids=["fig3", "d0-0-mbar-0", "d0-0-mbar-0.3", "d0-0-small-a"])
    def test_chains_are_base_eigenvectors(self, params):
        # At d0 = 0, level 0 of families a/b has d = 0. The bound, relative
        # to the chain's largest coefficient only, is at least as strict as
        # verify.eigen_residual <= SYMBOLIC_TOL.
        h0 = dc.big_hamiltonian(params, 0)
        for fam in dc.FAMILIES:
            for n in range(0, 13):
                chain = dc.eigenfunction_chain(params, n, fam)
                value = dc.family_eigenvalue(params, n, fam)
                r = h0.apply(chain) - chain.scale(value)
                scale = max(1.0, chain.max_abs_coeff())
                assert r.max_abs_coeff() <= vf.SYMBOLIC_TOL * scale, (fam, n)

    @pytest.mark.parametrize("params, n", [(FIG3, 12), (FIG3, 16), (FIG3, 20),
                                           (DiracParams(1e-3, 0.9, -0.4, 0.6), 5)],
                             ids=["fig3-12", "fig3-16", "fig3-20", "a=1e-3-5"])
    def test_chains_match_a_40_digit_lowering(self, params, n):
        # Every component of all four families lies within 1e-14 of its
        # largest coefficient (at most 5.7e-16 measured). Taking
        # d_(n+1) - d_n as a difference of two roots would put families c/d
        # 3.5e-13 off at fig3 and 3.6e-10 off at a = 1e-3.
        for fam in dc.FAMILIES:
            chain = dc.eigenfunction_chain(params, n, fam)
            for i, exact in enumerate(ref_exact_chain(params, n, fam)):
                assert exact_departure(chain.components[i], exact) <= 1e-14, (fam, i)

    @pytest.mark.parametrize("values", [
        (1e-3, 0.9, -0.4, 0.6), (1e-2, 0.9, -0.4, 0.6), (1.3, 0.9, -0.4, 0.6),
        (2.3, 0.45, -0.7, 1.1), (1.0, 2.0, 1.0, 0.1), (1e-3, 100.0, 1.0, 1.0)], ids=str)
    def test_thirteen_levels_solve_the_base_equation(self, values):
        # max |H_0 psi - E psi| / (|E| max |psi|) over the normalised chains
        # of a 13-level table, coefficient by coefficient: at most 1.5e-15
        # measured on these sets, small a included.
        p = DiracParams(*values)
        h0 = dc.big_hamiltonian(p, 0)
        for n in range(13):
            for fam in dc.FAMILIES:
                psi = dc.normalize_spinor(dc.eigenfunction_chain(p, n, fam))
                value = dc.family_eigenvalue(p, n, fam)
                r = h0.apply(psi) - psi.scale(value)
                assert r.max_abs_coeff() <= 1e-13 * abs(value) * psi.max_abs_coeff(), (n, fam)

    def test_chain_norms_positive_finite(self):
        for fam in dc.FAMILIES:
            for n in range(0, 4):
                norm = dc.spinor_inner(dc.eigenfunction_chain(FIG3, n, fam),
                                       dc.eigenfunction_chain(FIG3, n, fam))
                assert norm.real > 0
                assert math.isfinite(norm.real)

    def test_family_a_chain_orthogonality(self):
        chains = [dc.eigenfunction_chain(FIG3, n, "a") for n in range(4)]
        gram = [[dc.spinor_inner(chains[i], chains[j]) for j in range(4)]
                for i in range(4)]
        for i in range(4):
            for j in range(4):
                if i != j:
                    rel = abs(gram[i][j]) / math.sqrt(
                        gram[i][i].real * gram[j][j].real)
                    assert rel <= 1e-9


class TestOperatorCache:
    def test_b_op_is_read_only(self):
        op = dc.b_op(FIG3, 2)
        assert type(op.dcoef) is tuple and all(type(row) is tuple for row in op.dcoef)
        with pytest.raises(TypeError):
            op.dcoef[0][0] = 1.0

    def test_apply_coefficients_are_python_complex(self):
        f = random_spinor(rng_for(60), FIG3.a, FIG3.b, 4)
        for op in (dc.a_op(FIG3, 1), dc.a_dagger(FIG3, 1), dc.big_hamiltonian(FIG3, 0)):
            out = op.apply(f)
            assert all(type(coeff) is complex for p in out.components for *_, coeff in p.terms)

    def test_chains_bit_identical_to_uncached_chained_add(self):
        # The reference lowers whole 4-spinors through a 4x4 a_op built per
        # level, with the per-part algorithm that sums by chaining +. The
        # chain's upper half matches it bit for bit; its lower half is the
        # upper half times the family's lower weight, bit for bit, and matches
        # the reference's lowered lower half to roundoff.
        nr_sets = [NRParams(1.5, 0.5), NRParams(FIG3.a, FIG3.b)]
        dirac_sets = [FIG3, DiracParams(1.5, 0.5, -0.4, 0.2), DiracParams(1.2, 0.8, 0.4, 0.0)]
        levels = range(13)
        for p in nr_sets:
            for n in levels:
                f = nr.ground_state(p, n).terms
                for k in range(n, 0, -1):
                    f = ref_ladder(p.a, p.b, nr.ladder(p, k, "annihilation"), f)
                assert bits(nr.eigenfunction(p, n).terms) == bits(f)
        for q in dirac_sets:
            for n in levels:
                for fam in dc.FAMILIES:
                    phi = [c.terms for c in dc.eigenvector(q, n, fam)[0].components]
                    for k in range(n - 1, -1, -1):
                        op = dc.a_op(q, k)
                        phi = ref_apply(q.a, q.b, op.dcoef, op.potential, phi)
                    fast = dc.eigenfunction_chain(q, n, fam)
                    upper = dc.SpinorFn(fast.components[:2])
                    assert [bits(c.terms) for c in upper.components] == \
                        [bits(t) for t in phi[:2]]
                    weights = dc._weights(q, n, fam)
                    assert weights[0] == 1.0
                    scaled = upper.scale(weights[1])
                    assert [bits(c.terms) for c in fast.components[2:]] == \
                        [bits(c.terms) for c in scaled.components]
                    lowered = [{(mu, j, k): coeff for mu, j, k, coeff in c} for c in phi[2:]]
                    scale = max(abs(x) for c in lowered for x in c.values())
                    for c, ref in zip(fast.components[2:], lowered):
                        new = {(mu, j, k): coeff for mu, j, k, coeff in c.terms}
                        assert max((abs(new.get(key, 0j) - ref.get(key, 0j))
                                    for key in new | ref), default=0.0) <= 1e-13 * scale

    def test_paired_families_share_the_kernel_half(self):
        for q in (FIG3, DiracParams(1.5, 0.5, -0.4, 0.2), DiracParams(1.2, 0.8, 0.4, 0.0)):
            for n in (0, 1, 5):
                for pair in (("a", "b"), ("c", "d")):
                    first, second = (dc.eigenfunction_chain(q, n, fam) for fam in pair)
                    assert all(x is y for x, y in
                               zip(first.components[:2], second.components[:2]))
                    assert first.components[2:] != second.components[2:]


class TestConstantMatrices:
    """The matrices are nested tuples of Python complex, equal to the numpy
    arrays they replaced (conftest.ref_matrices) to the bit."""

    def test_module_matrices_match_numpy(self):
        for name in ("S0", "S1", "ALPHA1"):
            mat, ref = getattr(dc, name), ref_matrices()[name]
            assert type(mat) is tuple and all(type(v) is complex for row in mat for v in row)
            assert hex_matrix(mat) == hex_matrix(ref), name

    @pytest.mark.parametrize("params", [FIG3, DiracParams(1.3, 0.9, -0.4, 0.6)])
    def test_every_operators_dcoef_matches_numpy(self, params):
        for name, ref in ref_dcoefs().items():
            for n in (0, 3):
                op = getattr(dc, name)(params, n)
                assert type(op.dcoef) is tuple
                assert hex_matrix(op.dcoef) == hex_matrix(ref), (name, n)


class TestWrappedResults:
    """apply, scale and eigenfunction_chain build their results past
    SpinorFn's constructor checks: the inputs are still checked, and the
    results still hold one (a, b) context and 2 or 4 components."""

    Q = DiracParams(1.3, 0.9, -0.4, 0.6)

    def test_apply_rejects_a_size_mismatch(self):
        rng = rng_for(130)
        q = self.Q
        for op, size in ((dc.b_op(q, 1), 4), (dc.h_operator(q, 1), 4),
                         (dc.a_op(q, 1), 2), (dc.big_hamiltonian(q, 1), 2)):
            with pytest.raises(ValueError, match="operator size"):
                op.apply(random_spinor(rng, q.a, q.b, size))

    def test_apply_rejects_a_spinor_from_another_context(self):
        rng = rng_for(131)
        q = self.Q
        for op in (dc.b_op(q, 1), dc.b_dagger(q, 1), dc.h_operator(q, 1),
                   dc.a_op(q, 1), dc.a_dagger(q, 1), dc.big_hamiltonian(q, 1)):
            with pytest.raises(ContextMismatch):
                op.apply(random_spinor(rng, 1.5, 0.5, op.size))

    def test_eval_array_rejects_a_non_positive_point(self):
        f = dc.eigenfunction_chain(self.Q, 2, "a")
        for rhos in ([1.0, 0.0], [-1.0, 2.0], [[0.5, 1.0], [2.0, -3.0]], [1.0, math.nan],
                     [1.0, math.inf]):
            with pytest.raises(DomainError):
                f.eval_array(np.array(rhos))

    def test_results_share_one_context_and_have_two_or_four_components(self):
        rng = rng_for(132)
        q = self.Q
        f2, f4 = (random_spinor(rng, q.a, q.b, size) for size in (2, 4))
        results = [(op.apply(f), op.size) for op, f in
                   ((dc.b_op(q, 1), f2), (dc.b_dagger(q, 1), f2), (dc.h_operator(q, 1), f2),
                    (dc.a_op(q, 1), f4), (dc.a_dagger(q, 1), f4),
                    (dc.big_hamiltonian(q, 1), f4))]
        results += [(f.scale(c), f.size) for f in (f2, f4) for c in (2.0, 0.5 - 1j, 0.0)]
        results += [(dc.eigenfunction_chain(q, n, fam), 4)
                     for n in (0, 3) for fam in dc.FAMILIES]
        for out, size in results:
            assert type(out) is dc.SpinorFn and out.size == size
            assert {(c.a, c.b) for c in out.components} == {(q.a, q.b)}


class TestXiSuperpotential:
    def test_residual_small_fig3(self):
        for n in (0, 1):
            res = ref_superpotential_matrix_residual(FIG3, n, [0.5, 1.0, 2.0, 5.0])
            assert res <= 1e-8

    def test_column_rescale_invariance(self):
        # residual built from Xi' Xi^-1 is unchanged under column scaling,
        # checked by comparing against a manual recomputation with scaled columns
        cols = [dc.eigenvector(FIG3, 0, fam)[0] for fam in dc.FAMILIES]
        scales = [2.0, -3.0, 0.5, 7.0]
        w = potential_at(dc.a_dagger(FIG3, 0), 1.3)
        xi = np.stack([spinor_at(c.scale(s), 1.3) for c, s in zip(cols, scales)], axis=1)
        dxi = np.stack([spinor_at(dc.SpinorFn(tuple(p.differentiate() for p in c.components)
                                              ).scale(s), 1.3)
                        for c, s in zip(cols, scales)], axis=1)
        assert np.linalg.norm(w - dxi @ np.linalg.inv(xi)) <= 1e-10


class TestPhysicalSpectrum:
    def test_identity_with_level_constants(self):
        rng = rng_for(41)
        for _ in range(100):
            phys = random_phys(rng)
            p = phys.to_dirac()
            for n in range(0, 6):
                for sign in (1, -1):
                    closed = dc.spectrum_dirac(phys, n, sign)
                    via = sign * phys.c * phys.hbar * math.hypot(p.mbar, dc.dn(p, n))
                    assert closed == pytest.approx(via, rel=1e-12)

    def test_large_level_limit(self):
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=1, pz=0.7, ell=1)
        free = math.sqrt(1 + 0.49)
        assert dc.spectrum_dirac(phys, 10 ** 9, 1) == pytest.approx(free, rel=1e-9)
        assert dc.spectrum_dirac(phys, 10 ** 9, -1) == pytest.approx(-free, rel=1e-9)

    def test_small_k_level_independence(self):
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=1e-10, pz=0.7, ell=1)
        vals = {dc.spectrum_dirac(phys, n, 1) for n in range(4)}
        assert max(vals) - min(vals) <= 1e-12

    def test_errors(self):
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=-1, pz=1, ell=0)
        with pytest.raises(NoBoundStates):
            dc.spectrum_dirac(phys, 0, 1)
        with pytest.raises(ValueError):
            dc.spectrum_dirac(PhysicalParams(hbar=1, m=1, c=1, e=1, k=1, pz=1, ell=0),
                              0, 2)

    def test_no_bound_states_message_names_the_product(self):
        # Both spectra and both parameter maps refuse through PhysicalParams._require_bound.
        phys = PhysicalParams(hbar=1, m=1, c=1, e=1, k=-1, pz=1, ell=0)
        for call in (lambda: dc.spectrum_dirac(phys, 0, 1),
                     lambda: nr.spectrum_physical(phys, 0), phys.to_dirac, phys.to_nr):
            with pytest.raises(NoBoundStates) as info:
                call()
            assert str(info.value) == "p_z*k = -1 <= 0 carries no bound states"

    def test_nonrelativistic_limit(self):
        # as c grows, the mass-subtracted energy approaches the scalar form
        # evaluated at the matrix problem's index (lam/hbar + n); the measured
        # deviation shrinks like (v/c)^2
        base = dict(hbar=1.0, m=1.0, e=1.0, k=0.4, pz=0.3, ell=3.0)
        devs = []
        for c in (10.0, 100.0, 1000.0):
            phys = PhysicalParams(c=c, **base)
            p = phys.to_dirac()
            worst = 0.0
            for n in range(0, 3):
                reduced = dc.spectrum_dirac(phys, n, 1) - phys.m * c ** 2
                scalar_form = (phys.hbar ** 2 / phys.m) * (
                    -p.b ** 2 / (2.0 * (p.a + n) ** 2)) \
                    + phys.pz ** 2 / (2 * phys.m)
                worst = max(worst, abs(reduced - scalar_form) / abs(scalar_form))
            devs.append(worst)
        assert devs[0] / devs[1] == pytest.approx(100.0, rel=0.2)
        assert devs[1] / devs[2] == pytest.approx(100.0, rel=0.2)

    def test_spacings_match_scalar_module_at_large_angular_momentum(self):
        # the scalar spectrum carries a half-integer index offset relative to
        # the matrix one, so spacings agree only up to O(hbar/lam) corrections;
        # at large ell the relative gap shrinks accordingly
        for ell, bound in ((10.0, 0.2), (100.0, 0.02)):
            phys = PhysicalParams(hbar=1.0, m=1.0, c=500.0, e=1.0, k=0.4,
                                  pz=0.3, ell=ell)
            d_sp = [dc.spectrum_dirac(phys, n + 1, 1) - dc.spectrum_dirac(phys, n, 1)
                    for n in range(2)]
            s_sp = [nr.spectrum_physical(phys, n + 1) - nr.spectrum_physical(phys, n)
                    for n in range(2)]
            for d, s in zip(d_sp, s_sp):
                assert abs(d - s) / abs(s) <= bound


class TestFullSpinor:
    def test_hump_structure(self):
        # normalized chain densities show n+1 humps for family a, and the
        # degenerate a/c partners at equal eigenvalue differ visibly
        xs = np.linspace(0.05, 40.0, 2000)
        dens = {}
        for fam in ("a", "c"):
            for n in range(3):
                chain = dc.normalize_spinor(dc.eigenfunction_chain(FIG3, n, fam))
                dens[fam, n] = np.sum(np.abs(chain.eval_array(xs)) ** 2, axis=0)
        for n in range(3):
            d = dens["a", n]
            floor = 1e-6 * d.max()
            peaks = sum(1 for i in range(1, len(xs) - 1)
                        if d[i] > d[i - 1] and d[i] > d[i + 1] and d[i] > floor)
            assert peaks == n + 1
        for n in range(2):
            a_next, c_here = dens["a", n + 1], dens["c", n]
            assert float(np.max(np.abs(a_next - c_here))) > 0.01 * float(np.max(a_next))
