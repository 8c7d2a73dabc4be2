"""Tests of the closed-form Laguerre normalisation, of sampling the closed
form and of Horner sampling, against 40-digit references.

Every reference forms the powers a + j and the rates b/(a+k) in mpmath
from the float inputs: the Gamma sum of a deep chain cancels over about ten
orders of magnitude, so float-rounded powers would move it by more than the
tolerances tested here.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from conftest import random_dirac, random_nr, ref_exact_chain, ref_laguerre_norm2, rng_for

from susy_ladder import cli, expalg
from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder.cli import _samples
from susy_ladder.errors import DomainError, PrecisionLoss
from susy_ladder.expalg import LAGUERRE_TOL, ExpoPoly, laguerre_columns, laguerre_norm2
from susy_ladder.params import DiracParams, NRParams, default_rho_max

FIG2 = NRParams(1.5, 0.5)
FIG3 = DiracParams(1.0, 2.0, 1.0, 0.1)
DPS = 40


def chain_polys(n):
    """The scalar fig2 chain and every nonzero component of the four fig3 chains."""
    polys = [nr.eigenfunction(FIG2, n)]
    for fam in dc.FAMILIES:
        polys += [c for c in dc.eigenfunction_chain(FIG3, n, fam).components if c.terms]
    return polys


def gamma_sum(poly, terms=None):
    """<poly, poly> by the Gamma sum, in DPS digits; over terms in place of
    poly's own when given, as decayed (j, k, coeff) with coeff a float or mpc."""
    with mp.workdps(DPS):
        a, b = mp.mpf(poly.a), mp.mpf(poly.b)
        keys = [(a + j, b / (a + k), mp.mpc(coeff))
                for j, k, coeff in (poly.terms if terms is None else terms)]
        total = mp.mpf(0)
        for p1, r1, c1 in keys:
            for p2, r2, c2 in keys:
                s, g = p1 + p2 + 1, r1 + r2
                total += (mp.conj(c1) * c2).real * mp.gamma(s) / g ** s
        return total


def samples(poly, rhos):
    """poly at rhos, in DPS digits."""
    with mp.workdps(DPS):
        a, b = mp.mpf(poly.a), mp.mpf(poly.b)
        keys = [(j if k is None else a + j, 0 if k is None else b / (a + k), mp.mpc(coeff))
                for j, k, coeff in poly.terms]
        return np.array([complex(sum(c * mp.mpf(r) ** p * mp.exp(-g * mp.mpf(r))
                                     for p, g, c in keys))
                         for r in rhos])


def term_sum(poly, rhos):
    """poly at rhos as one float power and exp per term, summed in term order."""
    total = np.zeros(rhos.shape, dtype=complex)
    for j, k, coeff in poly.terms:
        rate = 0.0 if k is None else poly.b / (poly.a + k)
        total += coeff * rhos ** (j if k is None else poly.a + j) * np.exp(-rate * rhos)
    return total


def departure(poly):
    """Largest |coef_i - closed form| over the largest |coef|, the closed form
    run down from the top coefficient in DPS digits."""
    with mp.workdps(DPS):
        terms = poly.terms
        j0, k, _ = terms[0]
        a, b = mp.mpf(poly.a), mp.mpf(poly.b)
        alpha, m, two_beta = 2 * (a + j0) - 1, len(terms) - 1, 2 * b / (a + k)
        *_, top = terms[-1]
        expect, worst = mp.mpc(top), mp.mpf(0)
        for i in range(m - 1, -1, -1):
            expect = -expect * (i + 1) * (alpha + i + 1) / ((m - i) * two_beta)
            *_, coeff = terms[i]
            worst = max(worst, abs(mp.mpc(coeff) - expect))
        return float(worst) / poly.max_abs_coeff()


class TestClosedFormNorm:
    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_matches_a_40_digit_gamma_sum(self, n):
        # The scalar chain against the Gamma sum over its own coefficients.
        # That sum amplifies the last bits of a deep chain's coefficients,
        # so each Dirac component is held to the Gamma sum over the 40-digit
        # lowering of its chain (conftest.ref_exact_chain) instead.
        poly = nr.eigenfunction(FIG2, n)
        ref = gamma_sum(poly)
        assert abs(laguerre_norm2(poly) - ref) <= 1e-13 * ref
        for fam in dc.FAMILIES:
            chain = dc.eigenfunction_chain(FIG3, n, fam)
            for poly, exact in zip(chain.components, ref_exact_chain(FIG3, n, fam)):
                if poly.terms:
                    ref = gamma_sum(poly, [(*key, coeff) for key, coeff in exact.items()])
                    assert abs(laguerre_norm2(poly) - ref) <= 1e-13 * ref, fam

    def test_levels_below_12_match_a_40_digit_gamma_sum(self):
        # The float Gamma sum (inner_product of a chain with itself) is
        # already 1.1e-11 off at a level-5 Dirac component here; the closed
        # form stays below 1.4e-14.
        for n in range(12):
            for poly in chain_polys(n):
                ref = gamma_sum(poly)
                assert abs(laguerre_norm2(poly) - ref) <= 3e-14 * ref

    def test_normalised_chains_have_unit_norm(self):
        for n in (12, 16):
            f = nr.normalize(nr.eigenfunction(FIG2, n))
            assert float(gamma_sum(f)) == pytest.approx(1.0, abs=1e-13)
            for fam in dc.FAMILIES:
                phi = dc.normalize_spinor(dc.eigenfunction_chain(FIG3, n, fam))
                total = sum(gamma_sum(c) for c in phi.components if c.terms)
                assert float(total) == pytest.approx(1.0, abs=1e-13)

    def test_guard_tolerance_clears_the_measured_departure(self):
        # Twenty drawn sets, levels 0..20: the chains depart from their
        # closed forms by at most 3.6e-15 of the largest coefficient.
        rng = rng_for(70)
        worst = 0.0
        for _ in range(20):
            p, q = random_nr(rng), random_dirac(rng)
            for n in range(0, 21, 4):
                worst = max(worst, departure(nr.eigenfunction(p, n)))
                for fam in dc.FAMILIES:
                    for c in dc.eigenfunction_chain(q, n, fam).components:
                        if c.terms:
                            worst = max(worst, departure(c))
        assert worst <= 1e-14 <= LAGUERRE_TOL / 10


class TestNotALaguerreFunction:
    a, b = FIG2.a, FIG2.b

    def poly(self, *terms):
        return ExpoPoly(self.a, self.b, tuple(terms))

    # at a = 1, where the lowest power p0 = a + j0 reaches 0
    @pytest.mark.parametrize("terms", [
        (),
        ((2, None, 1.0),),                               # no decay
        ((1, 2, 1.0), (2, 3, 1.0)),                      # two decay indices
        ((1, 2, 1.0), (3, 2, 1.0)),                      # a gap in the powers
        ((1, None, 1.0), (1, 2, 1.0)),                   # a Laurent and a decayed term
        ((-3, 2, 1.0),),                                 # p0 = -2, alpha <= -1
        ((-1, 2, 1.0),),                                 # p0 = 0, alpha = -1
    ], ids=["zero", "no-decay", "two-rates", "gap", "laurent-and-decayed", "negative-p0",
            "zero-p0"])
    def test_wrong_shape_raises_value_error(self, terms):
        with pytest.raises(ValueError):
            laguerre_norm2(ExpoPoly(1.0, self.b, terms))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("i", [0, 3, 6])
    def test_a_coefficient_that_is_not_finite_raises_precision_loss(self, bad, i):
        # named before the departure test, which skips a NaN departure; a NaN
        # after the first term is also missed by max_abs_coeff
        f = nr.eigenfunction(FIG2, 6)
        terms = tuple((j, k, bad if n == i else c) for n, (j, k, c) in enumerate(f.terms))
        with pytest.raises(PrecisionLoss, match="^a coefficient is not finite$"):
            laguerre_norm2(ExpoPoly(f.a, f.b, terms))

    def test_a_closed_form_past_the_float_range_raises_precision_loss(self):
        # at (1e300, 1) level 1's coefficients are finite, but their ratio
        # (alpha+1)/(2 beta) is 1e600
        f = nr.eigenfunction(NRParams(1e300, 1.0), 1)
        assert all(math.isfinite(abs(c)) for *_, c in f.terms)
        with pytest.raises(PrecisionLoss, match="leaves the float range"):
            laguerre_norm2(f)

    def test_departed_coefficients_raise_precision_loss(self):
        f = nr.eigenfunction(FIG2, 6)
        scale = f.max_abs_coeff()
        for i in range(len(f.terms) - 1):
            j, k, coeff = f.terms[i]
            bumped = f + self.poly((j, k, 1e3 * LAGUERRE_TOL * scale))
            with pytest.raises(PrecisionLoss, match="depart from the Laguerre form"):
                laguerre_norm2(bumped)
            with pytest.raises(PrecisionLoss):
                nr.normalize(bumped)

    def test_random_polys_raise(self):
        rng = rng_for(71)
        for _ in range(20):
            terms = [(int(j), 3, complex(*rng.standard_normal(2))) for j in range(1, 5)]
            with pytest.raises(PrecisionLoss):
                laguerre_norm2(self.poly(*terms))

    def guard_polys(self):
        """Chains, bumped chains, random polys, every wrong shape, and
        coefficients that are NaN or infinite first, last or inside."""
        f = nr.eigenfunction(FIG2, 6)
        bumped = [f + self.poly((*t[:2], s * 1e3 * LAGUERRE_TOL * f.max_abs_coeff()))
                  for t in f.terms for s in (1.0, 1e-6)]
        rng = rng_for(72)
        polys = chain_polys(5) + chain_polys(13) + bumped
        polys += [self.poly(*[(j, 3, complex(*rng.standard_normal(2)))
                              for j in range(1, 5)]) for _ in range(10)]
        polys += [self.poly(*terms) for terms in [
            (), ((1, None, 1.0),), ((1, 2, 1.0), (2, 3, 1.0)),
            ((1, 2, 1.0), (3, 2, 1.0)), ((1, None, 1.0), (1, 2, 1.0)),
            ((-4, 2, 1.0),), ((-2, 2, 1.0),), ((1, 2, 1.0), (2, None, 1.0))]]
        # p0 = a = 1e-20 is positive, but alpha = 2 p0 - 1 rounds to -1
        polys.append(ExpoPoly(1e-20, 1.0, ((0, 0, 1.0),)))
        # A NaN first coefficient made the largest |coeff| NaN, which let a
        # departure pass that a finite largest |coeff| refuses (bumped[4]);
        # a coefficient that is not finite is now refused before that test.
        for g in (f, bumped[4]):
            for bad in (float("nan"), float("inf"), complex(1.0, float("nan"))):
                for i in (0, 3, len(g.terms) - 1):
                    polys.append(ExpoPoly(g.a, g.b, g.terms[:i] + (g.terms[i][:2] + (bad,),)
                                          + g.terms[i + 1:]))
        return polys

    def test_matches_the_reference_guard(self):
        # The same float, or the same exception and message, as the version
        # with max over generators (conftest.ref_laguerre_norm2).
        def outcome(norm2, poly):
            try:
                return norm2(poly).hex()
            except (ValueError, PrecisionLoss) as err:
                return type(err), str(err)

        for poly in self.guard_polys():
            assert outcome(laguerre_norm2, poly) == outcome(ref_laguerre_norm2, poly)

    def test_sampler_raises_where_the_norm_does(self):
        # The same exception and message as laguerre_norm2 on every nonzero
        # poly, a PrecisionLoss naming its column, and samples wherever it
        # returns a norm.
        def outcome(fn, poly):
            try:
                fn(poly)
            except (ValueError, PrecisionLoss) as err:
                return type(err), str(err)
            return None

        def named(result):
            if result is not None and result[0] is PrecisionLoss:
                return PrecisionLoss, "column G3: " + result[1]
            return result

        xs = [0.5, 1.0, 7.0]
        tested = 0
        for poly in self.guard_polys():
            if poly.terms:
                tested += 1
                assert (outcome(lambda p: laguerre_columns({"G3": (p,)}, xs), poly)
                        == named(outcome(laguerre_norm2, poly)))
        assert tested > 40

    def test_a_rate_that_rounds_to_0_is_refused_naming_the_rate(self):
        # a and b are positive, but 2 b/(a+k) underflows, so the norm has no log
        f = ExpoPoly(1e300, 1e-300, ((0, 0, 1.0),))
        for fn in (laguerre_norm2, lambda p: laguerre_columns({"G0": (p,)}, [1.0])):
            with pytest.raises(ValueError, match=r"^decay rate 2 beta = 2 b/\(a\+k\) = 0\.0 "
                                                 r"is not above 0$"):
                fn(f)

    def test_normalize_spinor_refuses_a_non_chain(self):
        gap = self.poly((1, 2, 1.0), (3, 2, 1.0))
        phi = dc.SpinorFn((gap, ExpoPoly.zero(self.a, self.b)))
        with pytest.raises(ValueError):
            dc.normalize_spinor(phi)


class TestHornerSampling:
    @pytest.mark.parametrize("n", [12, 16])
    def test_no_worse_than_the_term_sum(self, n):
        # fig2 at level 16, on all 512 table points: Horner 2.4e-9 of max|f|,
        # the term sum 1.0e-8.
        rho_max = default_rho_max(FIG2, n)
        rhos = np.linspace(rho_max / 512, rho_max, 512)[::4]
        for poly in chain_polys(n)[:5]:  # the scalar chain and family a
            ref = samples(poly, rhos)
            peak = np.max(np.abs(ref))
            horner = np.max(np.abs(poly.eval_array(rhos) - ref)) / peak
            summed = np.max(np.abs(term_sum(poly, rhos) - ref)) / peak
            assert horner <= summed
            assert horner <= 1e-8

    def test_gaps_and_negative_powers(self):
        # V0 of fig2 (powers -2 and -1, no decay) and terms in three k
        # groups, one with a gap of two in j.
        rhos = np.geomspace(1e-3, 50.0, 64)
        polys = [nr.potential(FIG2, 0),
                 ExpoPoly(FIG2.a, FIG2.b, ((1, 2, 1.5 - 2j), (3, 2, 0.25),
                                           (-1, None, 3.0), (2, 4, -1j)))]
        for poly in polys:
            magnitude = sum(np.abs(term_sum(ExpoPoly(poly.a, poly.b, (t,)), rhos))
                            for t in poly.terms)
            assert np.all(np.abs(poly.eval_array(rhos) - samples(poly, rhos))
                          <= 1e-15 * magnitude)


def unit_closed_form(polys, rhos):
    """Each poly over the group's norm N at rhos, in DPS digits: the closed
    form c rho^p0 e^(-beta rho) L_M^(2 p0 - 1)(2 beta rho), with
    c = t M! (-1)^M / (2 beta)^M from the top coefficient t, and N^2 the sum
    of the closed-form norms^2; zeros for a poly with no terms."""
    rhos = tuple(rhos)
    with mp.workdps(DPS):
        forms, norm2 = [], mp.mpf(0)
        for poly in polys:
            if not poly.terms:
                forms.append(None)
                continue
            j0, k, _ = poly.terms[0]
            *_, top = poly.terms[-1]
            m = len(poly.terms) - 1
            a, b = mp.mpf(poly.a), mp.mpf(poly.b)
            beta, alpha = b / (a + k), 2 * (a + j0) - 1
            t = mp.mpc(top)
            norm2 += (abs(t) ** 2 * mp.factorial(m) * mp.gamma(m + alpha + 1)
                      * (2 * m + alpha + 1) / (2 * beta) ** (2 * m + alpha + 2))
            forms.append((t * mp.factorial(m) * (-1) ** m / (2 * beta) ** m,
                          laguerre_shape(poly.a, poly.b, j0, k, m, rhos)))
        norm = mp.sqrt(norm2)
        return [np.zeros(len(rhos), dtype=complex) if form is None
                else np.array([complex(form[0] * g / norm) for g in form[1]])
                for form in forms]


@functools.lru_cache(maxsize=None)
def laguerre_shape(a, b, j0, k, m, rhos):
    """rho^p0 e^(-beta rho) L_m^(2 p0 - 1)(2 beta rho) at rhos in DPS
    digits, L_m by its three-term recurrence; once per shape."""
    with mp.workdps(DPS):
        a, b = mp.mpf(a), mp.mpf(b)
        p0, beta = a + j0, b / (a + k)
        alpha = 2 * p0 - 1
        out = []
        for r in rhos:
            r = mp.mpf(r)
            x, prev, lag = 2 * beta * r, mp.mpf(0), mp.mpf(1)
            for n in range(m):
                prev, lag = lag, ((2 * n + 1 + alpha - x) * lag - (n + alpha) * prev) / (n + 1)
            out.append(r ** p0 * mp.exp(-beta * r) * lag)
        return out


def unit_eigenfunction(params, n, rhos):
    """|G_n| at rhos in DPS digits: the scalar level-n eigenfunction with
    unit norm, from its closed form alone."""
    with mp.workdps(DPS):
        a, b = mp.mpf(params.a), mp.mpf(params.b)
        alpha, beta = 2 * a + 1, b / (a + n + 1)
        norm = mp.sqrt(mp.gamma(n + alpha + 1) * (2 * n + alpha + 1)
                       / (mp.factorial(n) * (2 * beta) ** (alpha + 2)))
        return np.array([float(abs(mp.mpf(r) ** (a + 1) * mp.exp(-beta * mp.mpf(r))
                                   * mp.laguerre(n, alpha, 2 * beta * mp.mpf(r))) / norm)
                         for r in rhos])


class TestLaguerreSampling:
    """expalg.laguerre_columns against 40 digits, on the table windows."""

    SETS = [DiracParams(1.5, 0.5, 1.0, 0.1), FIG3, DiracParams(1.3, 0.9, -0.4, 0.6),
            DiracParams(4.0, 0.5, 1.0, 0.1)]
    IDS = ["fig2", "fig3", "a1.3-b0.9", "a4-b0.5"]
    # Sets whose unit-norm chains the float norm, rho^p0 or the amplitude
    # t M! / (2 beta)^M took out of the float range before the samples were
    # formed in log form.
    WIDE = [DiracParams(45.0, 1.0, 0.3, 0.5), DiracParams(100.0, 1.0, 0.3, 0.5),
            DiracParams(20.0, 1e-6, 0.3, 0.5), DiracParams(20.0, 1e12, 0.3, 0.5)]
    WIDE_IDS = ["a45-b1", "a100-b1", "a20-b1e-6", "a20-b1e12"]

    @staticmethod
    def worst(params, levels, xs):
        """Largest |c f - exact| over max|exact|, over every nonzero component
        of the scalar chain and the four Dirac families at levels 0..levels-1,
        all sampled in one laguerre_columns call."""
        scalar = NRParams(params.a, params.b)
        groups = {}
        for n in range(levels):
            groups[f"G{n}"] = (nr.eigenfunction(scalar, n),)
            for fam in dc.FAMILIES:
                groups[f"density_{fam}{n}"] = dc.eigenfunction_chain(params, n, fam).components
        worst = 0.0
        for name, column in laguerre_columns(groups, xs).items():
            for (amp, f), ref in zip(column, unit_closed_form(groups[name], xs)):
                if groups[name] and np.any(ref):
                    peak = np.max(np.abs(ref))
                    worst = max(worst, np.max(np.abs(amp * np.array(f) - ref)) / peak)
        return worst

    @pytest.mark.parametrize("params", SETS, ids=IDS)
    def test_levels_0_to_13_within_1e_13_of_max_f(self, params):
        # Every level a table prints, on every 8th row of the window of a
        # 13-level table: the scalar chain and all four Dirac families.
        xs = _samples(default_rho_max(params, 12))[::8]
        assert self.worst(params, 14, xs) <= 1e-13
        # the scalar columns against the unit eigenfunctions themselves
        scalar = NRParams(params.a, params.b)
        columns = laguerre_columns({n: (nr.eigenfunction(scalar, n),) for n in range(14)}, xs)
        for n, ((amp, f),) in columns.items():
            ref = unit_eigenfunction(scalar, n, xs)
            assert np.max(np.abs(np.abs(amp.real * np.array(f)) - ref)) <= 1e-13 * np.max(ref)

    @pytest.mark.parametrize("params", WIDE, ids=WIDE_IDS)
    def test_large_a_and_extreme_b_within_a_few_p0_eps(self, params):
        # Levels 0..2 on every 4th row of a 3-level table's window. Log form
        # costs about p0 eps, the conditioning of rho^p0 e^(-beta rho) and of
        # the lgamma terms of c, with p0 = a + 1 the largest power. Measured
        # worst: 5.8 p0 eps at a = 45, 4.2 at a = 100, 5.2 at b = 1e-6 and
        # 4.2 at b = 1e12; 3.4 to 4.4 at the four sets above, on these rows.
        xs = _samples(default_rho_max(params, 2))[::4]
        p0 = params.a + 1
        assert self.worst(params, 3, xs) <= 8 * p0 * np.finfo(float).eps

    def test_shapes_share_one_pass_and_empty_components_sample_as_zeros(self):
        xs = [0.5, 1.0, 7.0]
        for fam in dc.FAMILIES:
            chain = dc.eigenfunction_chain(FIG3, 0, fam)
            rows = laguerre_columns({"d": chain.components}, xs)["d"]
            assert rows[0][1] is rows[2][1]
            for (amp, f), comp in zip(rows, chain.components):
                if not comp.terms:
                    assert amp == 0j and f == [0.0, 0.0, 0.0]
        rows = laguerre_columns({"d": dc.eigenfunction_chain(FIG3, 2, "c").components}, xs)["d"]
        assert rows[0][1] is rows[2][1] and rows[1][1] is rows[3][1]
        assert rows[0][1] is not rows[1][1]

    def test_overflow_samples_as_non_finite_and_underflow_as_zero(self):
        # Far past the peak every decay underflows, so level 0 samples as
        # exactly 0. At level 3, L_3(x) overflows there too; the sample is
        # 0 as well, not 0 * inf = nan, and level 1 keeps its -0.0.
        chains = {n: (nr.eigenfunction(FIG2, n),) for n in (0, 1, 3)}
        far = laguerre_columns(chains, [1e300, 1e305])
        assert far[0][0][1] == far[3][0][1] == [0.0, 0.0]
        assert [math.copysign(1.0, x) for x in far[1][0][1] + far[3][0][1]] == [-1, -1, 1, 1]
        near = laguerre_columns(chains, [1e-300, 1e-200])
        assert near[0][0][1] == near[3][0][1] == [0.0, 0.0]
        # Where the exp is not 0 an L_m past the float range stays non-finite:
        # L_1000^(2) at x = 1500, where the exp is about 1e-321.
        rhos = [1000.0, 1500.0]
        logs = [math.log(x / 1500.0) for x in rhos]
        near_peak, past = expalg._laguerre_function(1.5, 2.0, 1000, 1.0, rhos, logs, 1500.0)
        assert math.isfinite(near_peak) and not math.isfinite(past)

    def test_non_positive_points_refused(self):
        f = nr.eigenfunction(FIG2, 3)
        for xs in ([0.0, 1.0], [1.0, -2.0], [1.0, math.inf]):
            with pytest.raises(DomainError):
                laguerre_columns({"G3": (f,)}, xs)


class TestLengthScale:
    """b is a length scale: rho -> rho/b maps (a, b, d0, mbar) to its twin
    (a, 1, d0/b, mbar/b). Scalar energies scale by b^2 and Dirac energies by
    b, and a normalised chain f is sqrt(b) g(b rho) for its twin's chain g,
    so the coefficient of rho^(a + j) is sqrt(b) b^(a + j) times the
    twin's. Measured over these draws (b from 1.1e-6 to 6.2e5), levels 0..12:
    energies within 3.1e-16 relative, coefficients within 4.6e-14 of the
    chain's largest. verify.run_all rests on this: it runs every row at the twin."""

    DRAWS = 24
    TOL = 1e-13

    @staticmethod
    def draws():
        rng = rng_for(370)
        for i in range(TestLengthScale.DRAWS):
            a, b = float(rng.uniform(0.05, 4.0)), float(10 ** rng.uniform(-6.0, 6.0))
            d0 = 0.0 if i % 6 == 0 else float(rng.uniform(-1.5, 1.5))
            mbar = 0.0 if i % 8 == 1 else float(rng.uniform(0.0, 1.5))
            yield b, (NRParams(a, b), NRParams(a, 1.0)), (DiracParams(a, b, d0, mbar),
                                                       DiracParams(a, 1.0, d0 / b, mbar / b))

    @staticmethod
    def departure(parts, twin, b):
        """Largest |c - sqrt(b) b^(a + j) c_twin| over the chain's largest |c|."""
        assert [[t[:2] for t in f.terms] for f in parts] == [[t[:2] for t in g.terms] for g in twin]
        pairs = [(c, c2 * math.sqrt(b) * b ** (f.a + j))
                 for f, g in zip(parts, twin)
                 for (j, _, c), (*_, c2) in zip(f.terms, g.terms)]
        return max(abs(c - c2) for c, c2 in pairs) / max(abs(c) for c, _ in pairs)

    def test_energies_scale_with_b(self):
        for b, (p, p1), (q, q1) in self.draws():
            for n in range(13):
                assert nr.spectrum_radial(p, n) == pytest.approx(
                    b * b * nr.spectrum_radial(p1, n), rel=self.TOL, abs=0.0)
                for fam in dc.FAMILIES:
                    assert dc.family_eigenvalue(q, n, fam) == pytest.approx(
                        b * dc.family_eigenvalue(q1, n, fam), rel=self.TOL, abs=0.0)

    def test_normalised_chains_scale_with_b(self):
        worst = 0.0
        for b, (p, p1), (q, q1) in self.draws():
            for n in range(13):
                pairs = [([nr.normalize(nr.eigenfunction(p, n))],
                          [nr.normalize(nr.eigenfunction(p1, n))])]
                pairs += [(dc.normalize_spinor(dc.eigenfunction_chain(q, n, fam)).components,
                           dc.normalize_spinor(dc.eigenfunction_chain(q1, n, fam)).components)
                          for fam in dc.FAMILIES]
                worst = max([worst] + [self.departure(f, g, b) for f, g in pairs])
        assert worst <= self.TOL


class TestTableColumns:
    """Every G and density column of the eigenfunction tables at b != 1,
    against the 40-digit closed form at the user's set, on every 4th row.
    The tables build their chains at the b = 1 twin and sample them at
    b rho; the references use no twin (the Dirac ones take each component's
    top coefficient from the chain built at the user's b). Measured worst
    share of a column's peak, chains built at the user's b / at the twin:
    - fig2: 1.9e-15 / 1.9e-15; fig3: 9.0e-16 / 6.9e-16;
    - (1.3, 0.9, -0.4, 0.6), 13 levels: G 6.3e-15 / 8.2e-15, densities
      1.25e-14 / 1.08e-14;
    - a = 100, b = 1e12: G 7.9e-14 / 9.4e-14, densities 2.0e-13 / 1.84e-13;
    - a = 100, b = 1e-12: G 9.3e-14 / 9.2e-14, densities 1.71e-13 / 1.72e-13.
    At a = 100 both sit near 4 p0 eps for G and 8 p0 eps for the squared
    densities (TestLaguerreSampling), p0 = a + 1."""

    _CI = ["--a", "1.3", "--b", "0.9"]
    TABLES = ([(["fig2"], 3e-14), (["fig3"], 3e-14),
               (["nr-eigenfunctions", *_CI, "--levels", "13"], 3e-14),
               (["dirac-eigenfunctions", *_CI, "--d0", "-0.4", "--mbar", "0.6", "--levels", "13"],
                3e-14)]
              + [([mode, "--a", "100", "--b", b, *extra], 4e-13) for b in ("1e12", "1e-12")
                 for mode, extra in [("nr-eigenfunctions", []),
                                     ("dirac-eigenfunctions", ["--d0", "0.3", "--mbar", "0.5"])]])

    @pytest.mark.parametrize("argv, tol", TABLES, ids=[" ".join(a) for a, _ in TABLES])
    def test_columns_match_the_closed_form_at_the_users_set(self, argv, tol):
        cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
        table = getattr(cli, "_table_" + cfg.mode.replace("-", "_"))(cfg)
        xs = table["rho"][::4]
        worst = 0.0
        for name, column in table.items():
            if name[0] == "G":
                ref = unit_eigenfunction(cli._params(cfg, scalar=True), int(name[1:]), xs)
                got = np.abs(column[::4])
            elif name.startswith("density_"):
                chain = dc.eigenfunction_chain(cli._params(cfg, scalar=False), int(name[9:]),
                                               name[8])
                ref = sum(np.abs(c) ** 2 for c in unit_closed_form(chain.components, xs))
                got = np.array(column[::4])
            else:
                continue
            worst = max(worst, np.max(np.abs(got - ref)) / np.max(ref))
        assert worst <= tol
