"""Tests of the exponential-polynomial algebra: canonical form, arithmetic,
differentiation, evaluation, and the closed-form inner product."""

import functools
import gc
import math
import operator

import numpy as np
import pytest
from conftest import (bits, random_dirac, random_nr, random_poly, random_spinor,
                      record_samples, ref_add, ref_apply, ref_canonical, ref_eval_array,
                      ref_hamiltonian, ref_ladder, ref_scale, rng_for)

from susy_ladder import dirac as dc
from susy_ladder import expalg
from susy_ladder import nonrel as nr
from susy_ladder.errors import ContextMismatch, DivergentIntegral, DomainError
from susy_ladder.expalg import ExpoPoly, Term, _wrap, apply_operator, eval_rows
from susy_ladder.oracle import LogGrid
from susy_ladder.params import DiracParams, NRParams, default_rho_max
from susy_ladder.verify import NR_POINTS


term = ExpoPoly.term


def hex_bits(terms):
    """Keys and the .hex() of both coefficient parts, so that -0.0 counts."""
    return [(j, k, coeff.real.hex(), coeff.imag.hex()) for j, k, coeff in terms]


class TestCanonicalForm:
    def test_like_terms_merge(self):
        # rho^a e^(-b rho/(a+1)) + 2 * same -> one term with coefficient 3
        p = term(1.5, 0.5, 1.0, k=1) + term(1.5, 0.5, 2.0, k=1)
        assert len(p.terms) == 1
        ((*_, coeff),) = p.terms
        assert coeff == 3.0 + 0j

    def test_additive_inverse_empties(self):
        p = term(1.5, 0.5, 1.0, j=2, k=1)
        assert len((p - p).terms) == 0
        assert (p - p).is_zero(1e-15)

    def test_add_identity(self):
        p = term(1.5, 0.5, 2.5, j=1, k=2)
        assert p + ExpoPoly.zero(1.5, 0.5) == p

    def test_distinct_decays_do_not_merge(self):
        p = term(1.0, 1.0, 1.0, j=0, k=0) + term(1.0, 1.0, 1.0, j=0, k=1)
        assert len(p.terms) == 2

    def test_exponent_multiplier_restricted(self):
        # k alone tells a term's kind: there is no exponent multiplier to give
        with pytest.raises(TypeError):
            ExpoPoly.term(1.0, 1.0, 1.0, mu=2)

    @pytest.mark.parametrize("build", [
        lambda: term(1.0, 1.0, 1.0, j=1.5),
        lambda: term(1.0, 1.0, 1.0, k=1.5),
        lambda: ExpoPoly(1.0, 1.0, (Term(1.5, None, 1.0),)),
        lambda: ExpoPoly(1.0, 1.0, (Term(0, 1.5, 1.0),)),
        lambda: ExpoPoly(1.0, 1.0, (Term(0, 0, 1.0), Term(0.5, None, 1.0))),
    ], ids=["j=1.5", "k=1.5", "ctor-j=1.5", "ctor-k=1.5", "ctor-second-term"])
    def test_bad_term_keys_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_decay_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            term(1.0, 1.0, 1.0, j=-1, k=-1)

    @pytest.mark.parametrize("a, b, k", [
        (0.0, 1.0, None), (-1.0, 1.0, None), (1.0, 0.0, None), (1.0, -0.5, None),
        (1.5, 0.5, -2), (2.0, 0.5, -2),
    ], ids=["a=0", "a<0", "b=0", "b<0", "a+k<0", "a+k=0"])
    def test_term_checks_the_context_and_the_rate(self, a, b, k):
        with pytest.raises(ValueError):
            ExpoPoly.term(a, b, 1.0, j=0, k=k)
        with pytest.raises(ValueError):
            ExpoPoly(a, b, (Term(0, k, 1.0 + 0j),))
        if k is None:
            with pytest.raises(ValueError):
                ExpoPoly.zero(a, b)

    def test_term_equals_the_constructor(self):
        rng = rng_for(60)
        coeffs = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(10)]
        coeffs += [0.0, 0j, complex(-0.0, -0.0), complex(-0.0, 1.0), complex(2.0, -0.0), -3]
        for coeff in coeffs:
            for j, k in [(0, None), (2, 0), (-1, None), (-3, 4)]:
                made = term(1.3, 0.7, coeff, j=j, k=k)
                assert made == ExpoPoly(1.3, 0.7, (Term(j, k, coeff),))
                assert bits(made.terms) == bits(ref_canonical([Term(j, k, coeff)]))

    @pytest.mark.parametrize("coeff", [0, 0.0, -0.0, 0j, complex(-0.0, -0.0)])
    def test_term_drops_a_zero_coefficient(self, coeff):
        assert term(1.3, 0.7, coeff, j=1, k=0).terms == ()

    def test_term_stores_no_negative_zero(self):
        ((*_, coeff),) = term(1.3, 0.7, complex(-0.0, 1.0), j=1, k=0).terms
        assert (coeff.real.hex(), coeff.imag.hex()) == ("0x0.0p+0", "0x1.0000000000000p+0")

    def test_undecayed_term_sorts_first_within_j(self):
        # keys (j, None) and (j, k) do not compare as plain tuples, so the
        # sort falls back to _order
        a, b = 1.3, 0.7
        keys = [(1, 2), (0, 0), (1, None), (1, 0), (0, 5)]
        with pytest.raises(TypeError):
            sorted(keys)
        p = ExpoPoly(a, b, [Term(*key, float(i)) for i, key in enumerate(keys, 1)])
        assert [t[:2] for t in p.terms] == [(0, 0), (0, 5), (1, None), (1, 0), (1, 2)]
        # d/drho of rho^2 lands on (1, None), that of rho^(a+1) e^(-b rho/(a+1))
        # on (0, 1) and (1, 1)
        f = term(a, b, 1.0, j=2) + term(a, b, 2.0, j=1, k=1)
        (row,) = apply_operator([[1.0]], [[term(a, b, 0.5, j=-1)]], [f])
        assert [t[:2] for t in row.terms] == [(0, 1), (1, None), (1, 1)]
        (expect,) = ref_apply(a, b, [[1.0]], [[term(a, b, 0.5, j=-1)]], [f.terms])
        assert bits(row.terms) == bits(expect)

    def test_laurent_and_decayed_terms_sort_through_the_natural_sort(self, monkeypatch):
        # No j holds both kinds, so the keys' plain tuple order is defined,
        # and it is (j, Laurent first, k): _order is never called.
        def refuse(key):
            raise AssertionError("the natural sort fell back to _order")

        monkeypatch.setattr(expalg, "_order", refuse)
        keys = [(2, None), (0, 3), (-1, None), (1, 0), (0, 1)]
        p = ExpoPoly(1.3, 0.7, [Term(*key, float(i)) for i, key in enumerate(keys, 1)])
        expect = [(-1, None), (0, 1), (0, 3), (1, 0), (2, None)]
        assert [t[:2] for t in p.terms] == expect
        assert bits(p.terms) == bits(ref_canonical(p.terms[::-1]))
        assert [t[:2] for t in (p + p.scale(2.0)).terms] == expect

    def test_the_old_four_field_layout_is_refused(self):
        # a (mu, j, k, coeff) term raises rather than being read as (j, k, coeff)
        for build in (ExpoPoly, ExpoPoly.ordered):
            with pytest.raises(ValueError):
                build(1.0, 1.0, [(1, 0, 0, 1.0)])

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            term(1.0, 1.0, 1.0) + term(2.0, 1.0, 1.0)


class TestSignedZero:
    """Operator applications skip multiplying by an exact 1; that is exact
    only because no canonical coefficient has a -0.0 part."""

    def test_no_negative_zero_and_unit_scale_is_exact(self):
        a, b = 1.3, 0.7
        rng = rng_for(71)
        signed = [term(a, b, complex(-0.0, 1.0), j=1, k=0),
                  term(a, b, complex(1.0, -0.0), j=-1),
                  term(a, b, complex(-0.0, -0.0) - 2.5j, j=2, k=3)]
        polys = [random_poly(rng, a, b, n_terms=5) for _ in range(20)] + signed
        polys.append(ExpoPoly.sum(a, b, signed))
        for p in polys:
            for *_, coeff in p.terms:
                assert "-0x0.0p+0" not in (coeff.real.hex(), coeff.imag.hex())
            for one in (1, 1.0, complex(1, -0.0), np.complex128(complex(1, -0.0))):
                assert p.scale(one).terms == p.terms
                assert hex_bits(p.scale(one).terms) == hex_bits(p.terms)


class TestSum:
    """ExpoPoly.sum must equal chaining + bit for bit, compared with ==."""

    @pytest.mark.parametrize("tag", range(6))
    def test_matches_chained_add(self, tag):
        rng = rng_for(40 + tag)
        parts = [random_poly(rng, 1.3, 0.7, n_terms=int(rng.integers(1, 6)))
                 for _ in range(2 + tag)]
        chained = functools.reduce(operator.add, parts)
        assert ExpoPoly.sum(1.3, 0.7, parts).terms == chained.terms

    def test_drops_only_exact_zeros(self):
        # The third part cancels p down to about 2e-16 relative. Those
        # leftovers are real coefficients and stay; only p + (-p) vanishes.
        a, b = 1.3, 0.7
        p = random_poly(rng_for(50), a, b)
        q = term(a, b, 1.0)
        parts = [p, q, p.scale(-(1.0 - 2.0 ** -52)), p.scale(1e-3)]
        left = {(j, k): coeff
                for j, k, coeff in functools.reduce(operator.add, parts[:3]).terms}
        assert left.pop((0, None)) == 1.0
        assert left.keys() == {t[:2] for t in p.terms}
        for j, k, coeff in p.terms:
            assert 0.0 < abs(left[j, k]) <= 1e-15 * abs(coeff)
        assert (p + (-p)).terms == ()
        chained = functools.reduce(operator.add, parts)
        assert ExpoPoly.sum(a, b, parts).terms == chained.terms

    def test_empty_and_context(self):
        assert ExpoPoly.sum(1.0, 1.0, []) == ExpoPoly.zero(1.0, 1.0)
        with pytest.raises(ContextMismatch):
            ExpoPoly.sum(1.0, 1.0, [term(1.0, 1.0, 1.0), term(2.0, 1.0, 1.0)])


class TestSubtract:
    """p - q accumulates p and -q in one map. It must equal p + q.scale(-1.0),
    and the per-part reference, to the bit, -0.0 included."""

    a, b = 1.3, 0.7

    def check(self, p, q):
        expect = hex_bits((p + q.scale(-1.0)).terms)
        assert hex_bits((p - q).terms) == expect
        assert hex_bits(ref_add(p.terms, ref_scale(q.terms, -1.0))) == expect

    def test_verify_draws(self):
        rng = rng_for(170)
        for _ in range(40):
            p = random_nr(rng)
            polys = [random_poly(rng, p.a, p.b, n_terms=int(rng.integers(1, 7)))
                     for _ in range(4)]
            for f in polys:
                for g in polys:
                    self.check(f, g)

    def test_real_imaginary_and_signed_zero_parts(self):
        a, b = self.a, self.b
        coeffs = [2.0, -0.5, 3j, -1.5j, complex(-0.0, 1.0), complex(1.0, -0.0),
                  complex(-0.0, -0.0) - 2.5j, complex(2.0, 0.0), 1e-320, -1e-320j]
        polys = [term(a, b, c, j=j, k=0) for j, c in enumerate(coeffs)]
        polys += [term(a, b, c, j=1, k=0) for c in coeffs]
        polys.append(ExpoPoly.sum(a, b, polys[:len(coeffs)]))
        for f in polys:
            for g in polys:
                self.check(f, g)

    def test_disjoint_overlapping_identical_and_self(self):
        a, b = self.a, self.b
        rng = rng_for(171)
        p = random_poly(rng, a, b, n_terms=5)
        keys = [t[:2] for t in p.terms]
        disjoint = ExpoPoly(a, b, [(j, None, 1.5 - 1j) for j in range(3)])
        overlap = ExpoPoly(a, b, [(*keys[0], 0.25j), (-1, None, 2.0)])
        same = ExpoPoly(a, b, [(*key, complex(*rng.standard_normal(2))) for key in keys])
        # p's real parts cancel exactly: only the imaginary parts are left
        real = ExpoPoly(a, b, [(j, k, coeff.real) for j, k, coeff in p.terms])
        for q in (disjoint, overlap, same, real, p, ExpoPoly.zero(a, b)):
            self.check(p, q)
            self.check(q, p)
        assert (p - p).terms == ()
        assert all(coeff.real == 0.0 for *_, coeff in (p - real).terms)

    def test_undecayed_and_decayed_keys_at_one_power(self):
        # (1, None) and (1, k) do not compare as plain tuples, which sends
        # the sort to its _order fallback
        a, b = self.a, self.b
        p = ExpoPoly(a, b, [(1, None, 2.0 + 1j), (1, 2, -1.0), (0, 0, 0.5j)])
        q = ExpoPoly(a, b, [(1, 0, 3.0), (1, None, 2.0 - 1j), (0, 5, 1.0)])
        for f, g in ((p, q), (q, p), (p, p), (p, ExpoPoly.zero(a, b))):
            self.check(f, g)
        assert [t[:2] for t in (p - q).terms] == [(0, 0), (0, 5), (1, None), (1, 0), (1, 2)]

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            term(1.0, 1.0, 1.0) - term(2.0, 1.0, 1.0)
        rng = rng_for(172)
        f = random_spinor(rng, 1.0, 1.0, 2)
        with pytest.raises(ContextMismatch):
            f - random_spinor(rng, 2.0, 1.0, 2)
        with pytest.raises(ValueError):
            f - random_spinor(rng, 1.0, 1.0, 4)

    def test_spinors(self):
        rng = rng_for(173)
        for _ in range(10):
            q = random_dirac(rng)
            for size in (2, 4):
                f, g = (random_spinor(rng, q.a, q.b, size) for _ in range(2))
                g = dc.SpinorFn(g.components[:1] + (ExpoPoly.zero(q.a, q.b),)
                                + g.components[2:])
                for x, y in ((f, g), (g, f), (f, f)):
                    out = x - y
                    assert type(out) is dc.SpinorFn and out.size == size
                    assert {(c.a, c.b) for c in out.components} == {(q.a, q.b)}
                    assert ([hex_bits(c.terms) for c in out.components]
                            == [hex_bits(c.terms) for c in (x + y.scale(-1.0)).components])
                assert (f - f).is_zero(0.0)


class TestSlottedPoly:
    """ExpoPoly is a frozen slotted record; _wrap sets its slots directly."""

    def test_no_instance_dict(self):
        a, b = 1.3, 0.7
        polys = [ExpoPoly(a, b, ((0, 0, 1.0),)), ExpoPoly.zero(a, b), term(a, b, 2.0),
                 random_poly(rng_for(174), a, b), _wrap(a, b, ())]
        for p in polys:
            assert not hasattr(p, "__dict__")
        assert "__dict__" not in dir(ExpoPoly)

    def test_wrapped_equals_constructed(self):
        rng = rng_for(175)
        for _ in range(10):
            q = random_nr(rng)
            p = random_poly(rng, q.a, q.b, n_terms=4)
            zero = ExpoPoly.zero(q.a, q.b)
            for wrapped in (_wrap(q.a, q.b, p.terms), p, p.scale(1.0), p - zero):
                built = ExpoPoly(q.a, q.b, p.terms)
                assert wrapped == built and hash(wrapped) == hash(built)
        assert _wrap(1.3, 0.7, ()) == ExpoPoly(1.3, 0.7)
        assert hash(_wrap(1.3, 0.7, ())) == hash(ExpoPoly(1.3, 0.7))

    def test_fields_are_frozen(self):
        for p in (ExpoPoly(1.3, 0.7, ((1, None, 1.0),)), _wrap(1.3, 0.7, ())):
            for name, value in (("a", 2.0), ("b", 2.0), ("terms", ())):
                with pytest.raises(AttributeError, match=f"'{name}'"):
                    setattr(p, name, value)
            assert (p.a, p.b) == (1.3, 0.7)
        # and so is every other record type
        for record in record_samples():
            before = repr(record)
            for name in record._fields:
                with pytest.raises(AttributeError, match=f"'{name}'"):
                    setattr(record, name, None)
                with pytest.raises(AttributeError, match=f"'{name}'"):
                    delattr(record, name)
            assert repr(record) == before


class TestPlainTupleTerms:
    """Every stored term is an exact tuple. The garbage collector untracks an
    exact tuple of atoms when it first sees it, but keeps a tuple subclass
    such as Term tracked for as long as it lives."""

    def test_every_operation_stores_plain_tuples(self):
        a, b = 1.3, 0.7
        rng = rng_for(176)
        p = random_poly(rng, a, b, n_terms=4)
        q = random_poly(rng, a, b, n_terms=4)
        laurent = term(a, b, 2.0, j=-1) + term(a, b, -0.5)
        zero = ExpoPoly.zero(a, b)
        results = [
            ExpoPoly(a, b, p.terms), ExpoPoly(a, b, [(0, 0, 1.0), (2, None, 2.0)]),
            term(a, b, 2.0, j=1, k=0), ExpoPoly.sum(a, b, [p, q, laurent]),
            p + q, p - q, -p, p.scale(2.5j), p.conjugate(), p.differentiate(),
            p.mul_laurent(laurent),
            *apply_operator([[1.0, 0.5], [0.0, -1.0]], [[laurent, zero], [laurent, laurent]],
                            [p, q]),
            nr.eigenfunction(NRParams(a, b), 3),
            *dc._lowered_kernel(DiracParams(a, b, -0.4, 0.6), 3, dc.kernel_xi).components,
        ]
        for r in results:
            assert r.terms and type(r.terms) is tuple
            assert all(type(t) is tuple for t in r.terms), r

    def test_chains_are_untracked_after_a_collection(self):
        polys = [nr.eigenfunction(NRParams(1.5, 0.5), 12),
                 *dc.eigenfunction_chain(DiracParams(1.0, 2.0, 1.0, 0.1), 12, "c").components]
        # One collection untracks every term. It can reach a terms tuple
        # before that tuple's terms in the same pass, so the tuple itself may
        # wait for the next collection.
        gc.collect()
        for p in polys:
            assert p.terms
            assert not any(gc.is_tracked(t) for t in p.terms)
        gc.collect()
        for p in polys:
            assert not gc.is_tracked(p.terms)

    def test_constructor_stores_plain_tuples_equal_to_term_input(self):
        given = (Term(-1, None, 0.5 + 0j), Term(2, 0, 1.5 - 2j))
        p = ExpoPoly(1.3, 0.7, given)
        assert p.terms == given
        assert [type(t) for t in p.terms] == [tuple, tuple]


class TestApplyOperator:
    """Every operator row, accumulated in one dict, equals the per-part
    algorithm (conftest.ref_apply) bit for bit, -0.0 included."""

    @staticmethod
    def inputs(rng, a, b, size):
        """A random spinor, one that cancels to exact zero, and one with a
        zero component and a nearly cancelled one."""
        f = random_spinor(rng, a, b, size)
        g = random_spinor(rng, a, b, size)
        zero = f - f.scale(1.0)
        _, g1, *rest = g.components
        near = g1 - g1.scale(1.0 - 2.0 ** -52)
        mixed = dc.SpinorFn((zero.components[0], near, *rest))
        return [f, zero, mixed]

    @pytest.mark.parametrize("tag", range(4))
    def test_dirac_operators_match_the_per_part_reference(self, tag):
        rng = rng_for(80 + tag)
        for _ in range(6):
            p = random_dirac(rng)
            n = int(rng.integers(0, 6))
            bd = dc.b_dagger(p, n)
            ops = [dc.b_op(p, n), bd, dc.h_operator(p, n), dc.a_op(p, n),
                   dc.a_dagger(p, n), dc.big_hamiltonian(p, n)]
            assert any(op.dcoef[0][1] == -1j for op in ops)
            for op in ops:
                for f in self.inputs(rng, p.a, p.b, op.size):
                    expect = ref_apply(p.a, p.b, op.dcoef, op.potential,
                                       [c.terms for c in f.components])
                    got = op.apply(f).components
                    assert [bits(c.terms) for c in got] == [bits(t) for t in expect]
        # Random operators: multipliers 0, 1, 1+0j and others, potentials of
        # no, one and several terms, on columns of several k groups.
        a, b = p.a, p.b
        consts = [0.0, 1.0, 1 + 0j, -1.0, -1j, 0.5 + 2.0j]
        for _ in range(10):
            size = int(rng.integers(1, 5))
            dcoef = [[consts[int(rng.integers(0, len(consts)))] for _ in range(size)]
                     for _ in range(size)]
            dcoef[0][0] = 1 + 0j
            potential = [[ExpoPoly.sum(a, b, [
                term(a, b, complex(*rng.standard_normal(2)), j=int(rng.integers(-2, 2)))
                for _ in range(int(rng.integers(0, 4)))]) for _ in range(size)]
                for _ in range(size)]
            columns = [random_poly(rng, a, b, n_terms=5)
                       + term(a, b, complex(*rng.standard_normal(2)), j=int(rng.integers(-1, 3)))
                       for _ in range(size)]
            assert len({k for f in columns for _, k, _ in f.terms}) > 1
            got = apply_operator(dcoef, potential, columns)
            expect = ref_apply(a, b, dcoef, potential, [f.terms for f in columns])
            assert [bits(row.terms) for row in got] == [bits(t) for t in expect]
        # A unit multiplier adds f' as it is. Here f' has the coefficient
        # 1e308 * (a + 3) = inf + 0j, which times 1 + 0j has a NaN imaginary part.
        f = term(a, b, 1e308, j=3, k=0)
        (row,) = apply_operator([[1 + 0j]], [[ExpoPoly.zero(a, b)]], [f])
        (expect,) = ref_apply(a, b, [[1 + 0j]], [[ExpoPoly.zero(a, b)]], [f.terms])
        assert bits(row.terms) == bits(expect)
        assert any(math.isinf(coeff.real) for *_, coeff in row.terms)
        assert not any(math.isnan(coeff.imag) for *_, coeff in row.terms)

    def test_random_operators_match_the_per_part_reference(self):
        # Laurent potentials of up to four terms give a product key three or
        # more contributions, where the accumulation order shows.
        a, b = 1.3, 0.7
        rng = rng_for(95)
        consts = [1.0, 0.0, -1.0, -1j, 0.5 + 2.0j]
        for _ in range(20):
            size = int(rng.integers(1, 5))
            dcoef = [[consts[int(rng.integers(0, len(consts)))] for _ in range(size)]
                     for _ in range(size)]
            potential = [[ExpoPoly.sum(a, b, [
                term(a, b, complex(rng.standard_normal(), rng.standard_normal()),
                     j=int(rng.integers(-2, 2))) for _ in range(int(rng.integers(0, 5)))])
                for _ in range(size)] for _ in range(size)]
            columns = [random_poly(rng, a, b, n_terms=6) for _ in range(size)]
            got = apply_operator(dcoef, potential, columns)
            expect = ref_apply(a, b, dcoef, potential, [f.terms for f in columns])
            assert [bits(row.terms) for row in got] == [bits(t) for t in expect]
        # A single-term multiplier whose product 1j * -1 is -0.0 - 1j: stored
        # as 0j + that on a fresh key, and added to the derivative's
        # coefficient on a shared one.
        assert repr((1j * complex(-1.0)).real) == "-0.0"
        f = term(a, b, 1j, j=1, k=0) + term(a, b, 1j, j=2)
        for pot in (term(a, b, -1.0), term(a, b, -1.0, j=-1)):
            for c in (0.0, 1.0, -1j):
                got = apply_operator([[c]], [[pot]], [f])
                expect = ref_apply(a, b, [[c]], [[pot]], [f.terms])
                assert [bits(row.terms) for row in got] == [bits(t) for t in expect]

    def test_one_and_several_term_multipliers_are_checked(self):
        # One-term and longer multipliers both reject a foreign context and a
        # non-Laurent term.
        a, b = 1.3, 0.7
        f = random_poly(rng_for(96), a, b)
        for pot in (term(a, b, 2.0, j=-1), term(a, b, 2.0, j=-1) + term(a, b, 0.5)):
            for ctx in ((1.5, 0.5), (a, 0.5), (1.5, b)):
                foreign = ExpoPoly(*ctx, pot.terms)
                with pytest.raises(ContextMismatch):
                    apply_operator([[0.0]], [[foreign]], [f])
        bad = term(a, b, 1.0, k=1)
        for pot in (bad, bad + term(a, b, 0.5)):
            with pytest.raises(ValueError, match="pure Laurent"):
                apply_operator([[1.0]], [[pot]], [f])

    @pytest.mark.parametrize("tag", range(4))
    def test_scalar_operators_match_the_per_part_reference(self, tag):
        rng = rng_for(90 + tag)
        for _ in range(10):
            p = random_nr(rng)
            n = int(rng.integers(1, 6))
            f = random_poly(rng, p.a, p.b, n_terms=int(rng.integers(1, 7)))
            for g in (f, f - f.scale(1.0), f + f.scale(-(1.0 - 2.0 ** -52))):
                for direction in ("creation", "annihilation"):
                    ladder = nr.ladder(p, n, direction)
                    assert (bits(ladder.apply(g).terms)
                            == bits(ref_ladder(p.a, p.b, ladder, g.terms)))
                expect = ref_hamiltonian(p.a, p.b, nr.potential(p, n), g.terms)
                assert bits(nr.apply_hamiltonian(p, n, g).terms) == bits(expect)


class TestChainRecurrences:
    """nonrel.eigenfunction and dirac._lowered_kernel lower a chain over
    coefficient lists; each equals applying the operators one at a time
    (ScalarLadder.apply, MatrixOp.apply, and the per-part reference) bit
    for bit."""

    # fig2, fig3, three drawn Dirac sets, the ends of the range of a, and two
    # sets whose operators drop a term as an exact zero: the -i delta entry
    # at b = 1e-200, W's constant at b = 5e-324
    SETS = [(1.5, 0.5, 1.0, 0.1), (1.0, 2.0, 1.0, 0.1), (1.3, 0.9, -0.4, 0.6),
            (0.55, 2.0, 0.1, 0.2), (4.0, 0.5, 0.3, 1.0), (0.01, 1.0, 0.3, 0.5),
            (8.0, 1.0, -0.7, 0.2), (1.0, 1e-200, 0.5, 0.1), (1.0, 5e-324, 0.3, 0.0)]
    LEVELS = range(41)

    @pytest.mark.parametrize("a, b, d0, mbar", SETS)
    def test_scalar_chains_to_level_40(self, a, b, d0, mbar):
        p = NRParams(a, b)
        for n in self.LEVELS:
            ground = nr.ground_state(p, n)
            got = hex_bits(nr.eigenfunction(p, n).terms)
            f = ground
            for k in range(n, 0, -1):
                f = nr.ladder(p, k, "annihilation").apply(f)
            assert got == hex_bits(f.terms)
            ref = ground.terms
            for k in range(n, 0, -1):
                ref = ref_ladder(a, b, nr.ladder(p, k, "annihilation"), ref)
            assert got == hex_bits(ref)

    @pytest.mark.parametrize("a, b, d0, mbar", SETS)
    def test_dirac_kernels_to_level_40(self, a, b, d0, mbar):
        # chi's lower component is zero; xi's components start one power apart.
        q = DiracParams(a, b, d0, mbar)
        for n in self.LEVELS:
            ops = [dc.b_op(q, k) for k in range(n - 1, -1, -1)]
            for kernel in (dc.kernel_chi, dc.kernel_xi):
                seed = kernel(q, n)
                got = [hex_bits(c.terms) for c in dc._lowered_kernel(q, n, kernel).components]
                half = seed
                for op in ops:
                    half = op.apply(half)
                assert got == [hex_bits(c.terms) for c in half.components]
                ref = [f.terms for f in seed.components]
                for op in ops:
                    ref = ref_apply(a, b, op.dcoef, op.potential, ref)
                assert got == [hex_bits(t) for t in ref]

    # Sets whose chains overflow: the operators read nan+nanj there, the
    # float recurrences inf or NaN on the coefficient's axis and 0.0 off it.
    OVERFLOW_SETS = [(1.0, 1e100, 1.0, 1.0), (1e-3, 1e150, 0.0, 0.5)]

    @staticmethod
    def overflowed(got, ref):
        """The count of ref's non-finite coefficients, after checking that got
        has ref's keys, ref's bits wherever ref is finite, and elsewhere one
        non-finite part and one 0.0; and that each coefficient of got is a
        complex with no -0.0 part."""
        assert [(j, k) for j, k, _ in got] == [(j, k) for j, k, _ in ref]
        count = 0
        for (_, _, c), (_, _, r) in zip(got, ref):
            assert type(c) is complex
            parts = (c.real, c.imag)
            assert all(math.copysign(1.0, x) == 1.0 for x in parts if x == 0.0)
            if math.isfinite(r.real) and math.isfinite(r.imag):
                assert (c.real.hex(), c.imag.hex()) == (r.real.hex(), r.imag.hex())
            else:
                count += 1
                assert sorted(map(math.isfinite, parts)) == [False, True]
                assert 0.0 in parts
        return count

    @pytest.mark.parametrize("a, b, d0, mbar", OVERFLOW_SETS)
    def test_overflowing_chains_keep_every_finite_coefficient(self, a, b, d0, mbar):
        p, q = NRParams(a, b), DiracParams(a, b, d0, mbar)
        counts = []
        for n in self.LEVELS:
            f = nr.ground_state(p, n)
            for k in range(n, 0, -1):
                f = nr.ladder(p, k, "annihilation").apply(f)
            counts.append(self.overflowed(nr.eigenfunction(p, n).terms, f.terms))
            ops = [dc.b_op(q, k) for k in range(n - 1, -1, -1)]
            for kernel in (dc.kernel_chi, dc.kernel_xi):
                half = kernel(q, n)
                for op in ops:
                    half = op.apply(half)
                got = dc._lowered_kernel(q, n, kernel).components
                counts += [self.overflowed(g.terms, r.terms)
                           for g, r in zip(got, half.components, strict=True)]
        assert sum(counts) > 0

    def test_chains_apply_no_operator_step_by_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chain applied an operator one step at a time")

        def refuse_build(*args):
            raise AssertionError("a chain built a lowering operator")

        monkeypatch.setattr(nr.ScalarLadder, "apply", refuse)
        monkeypatch.setattr(dc.MatrixOp, "apply", refuse)
        monkeypatch.setattr(dc, "b_op", refuse_build)
        monkeypatch.setattr(dc, "b_dagger", refuse_build)
        dc._lowered_kernel.cache_clear()
        for n in (0, 1, 5, 12):
            nr.eigenfunction(NRParams(1.5, 0.5), n)
            for fam in dc.FAMILIES:
                dc.eigenfunction_chain(DiracParams(1.3, 0.9, -0.4, 0.6), n, fam)


class TestSameKeyOps:
    """scale and conjugate keep the key order and skip the sort;
    they must still store 0j + c and drop exact zeros, as canonicalizing
    the mapped terms does."""

    def test_match_canonicalizing_the_mapped_terms(self):
        a, b = 1.3, 0.7
        rng = rng_for(75)
        real = ExpoPoly.sum(a, b, [term(a, b, 2.0, j=1, k=0), term(a, b, -0.5, j=-1),
                                   term(a, b, complex(0.0, 3.0), j=2, k=3)])
        polys = [random_poly(rng, a, b, n_terms=5) for _ in range(10)] + [real]
        scales = [-1.0, 0.5, 0.0, 1e-320, -1j, np.complex128(-1j), np.float64(0.3),
                  complex(0.0, -0.0), 2.5 - 1.5j]
        for p in polys:
            assert bits(p.conjugate().terms) == bits(ref_canonical(
                [Term(j, k, coeff.conjugate()) for j, k, coeff in p.terms]))
            for c in scales:
                assert bits(p.scale(c).terms) == bits(ref_scale(p.terms, c))


class TestScaleAndPower:
    def test_scale_one_and_zero(self):
        p = term(1.5, 0.5, 2.0, j=1, k=1)
        assert p.scale(1.0) == p
        assert p.scale(0.0).is_zero(1e-15)

    def test_scale_i_squared(self):
        p = term(1.5, 0.5, 1.0, k=0)
        assert p.scale(1j).scale(1j) == p.scale(-1.0)

    def test_mul_laurent_requires_pure_laurent(self):
        p = term(1.5, 0.5, 1.0, k=1)
        with pytest.raises(ValueError):
            p.mul_laurent(term(1.5, 0.5, 1.0, k=1))


class TestDifferentiate:
    def test_product_rule_single_term(self):
        # d/drho rho^a e^(-beta rho) = a rho^(a-1) e - beta rho^a e
        a, b = 1.5, 0.5
        p = term(a, b, 1.0, j=0, k=1)
        beta = b / (a + 1)
        expected = term(a, b, a, j=-1, k=1) + term(a, b, -beta, j=0, k=1)
        assert (p.differentiate() - expected).is_zero(1e-15)

    def test_constant_derivative_vanishes(self):
        assert term(1.0, 1.0, 7.0).differentiate().is_zero(1e-15)

    def test_pure_power(self):
        p = term(1.5, 0.5, 1.0, j=2)
        assert p.differentiate() == term(1.5, 0.5, 2.0, j=1)

    def test_linearity_randomized(self):
        rng = rng_for(10)
        for _ in range(20):
            a, b = float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))
            p, q = random_poly(rng, a, b), random_poly(rng, a, b)
            r = (p + q).differentiate() - (p.differentiate() + q.differentiate())
            assert r.is_zero(1e-12)

    def test_matches_central_difference(self):
        rng = rng_for(11)
        h = 1e-5
        for _ in range(10):
            a, b = float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))
            p = random_poly(rng, a, b)
            dp = p.differentiate()
            for rho in (0.7, 1.3, 4.2):
                fd = (p.eval(rho + h) - p.eval(rho - h)) / (2 * h)
                exact = dp.eval(rho)
                assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact))


class TestEval:
    def test_unit_power_no_decay(self):
        # a power with zero decay rate at rho=1 is 1
        assert term(1.5, 0.5, 1.0, j=3).eval(1.0) == pytest.approx(1.0)

    def test_linear(self):
        assert term(1.0, 1.0, 2.0, j=1).eval(3.5) == pytest.approx(7.0)

    def test_fractional_power_with_decay(self):
        # rho^1.5 e^(-0.2 rho) at rho=2, context a=1.5, b=0.5, k=1
        p = term(1.5, 0.5, 1.0, j=0, k=1)
        assert p.eval(2.0) == pytest.approx(2.0 ** 1.5 * math.exp(-0.4), rel=1e-14)

    def test_domain_error(self):
        p = term(1.5, 0.5, 1.0, k=0)
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                p.eval(rho)
        for rhos in ([1.0, -1.0], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(DomainError):
                p.eval_array(np.array(rhos))

    def test_eval_array_matches_scalar(self):
        rng = rng_for(12)
        p = random_poly(rng, 1.2, 0.8)
        xs = np.array([0.5, 1.0, 2.0, 10.0])
        vec = p.eval_array(xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(p.eval(float(x)), rel=1e-14)


class TestSampler:
    """ExpoPoly.eval_array and SpinorFn.eval_array sample all their rows in one
    eval_rows call, with the grid cast and the power and decay arrays shared.
    Each row equals the per-poly reference (conftest.ref_eval_array) byte for
    byte, -0.0 and underflowed tails included."""

    # The second grid reaches far enough for exp(-beta rho) to underflow.
    GRIDS = (np.linspace(0.04, 40.0, 512), np.geomspace(1e-4, 3000.0, 512))

    @staticmethod
    def assert_same(f, rhos):
        got, expect = f.eval_array(rhos), ref_eval_array(f, rhos)
        assert (got.shape, got.dtype) == (expect.shape, expect.dtype)
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("q", [DiracParams(1.0, 2.0, 1.0, 0.1),
                                   DiracParams(1.3, 0.9, -0.4, 0.6),
                                   DiracParams(1.2, 0.8, 0.4, 0.0)],
                             ids=["fig3", "negative-d0", "mbar-0"])
    def test_chains_to_the_level_cap(self, q):
        p = NRParams(q.a, q.b)
        for n in range(14):
            chains = [nr.normalize(nr.eigenfunction(p, n))]
            chains += [dc.normalize_spinor(dc.eigenfunction_chain(q, n, fam))
                       for fam in dc.FAMILIES]
            for f in chains:
                for rhos in self.GRIDS:
                    self.assert_same(f, rhos)

    @staticmethod
    def random_grouped_poly(rng, a, b):
        """Three or four k groups, each with offsets j drawn with gaps, and
        real, purely imaginary or general complex coefficients."""
        ks = [None, 0, 2, 3]
        terms = []
        for g in rng.choice(len(ks), size=int(rng.integers(3, 5)), replace=False):
            k = ks[g]
            for j in sorted(rng.choice(np.arange(-1, 7), size=int(rng.integers(1, 6)),
                                       replace=False)):
                x, y = rng.standard_normal(2)
                coeff = (complex(x, y), complex(0.0, y), complex(-abs(x), 0.0))[
                    int(rng.integers(0, 3))]
                terms.append(Term(int(j), k, coeff))
        return ExpoPoly(a, b, terms)

    def test_random_polys_with_gaps_and_imaginary_coefficients(self):
        rng = rng_for(120)
        polys = [self.random_grouped_poly(rng, a, b)
                 for a, b in [(1.3, 0.7)] * 20 + [(0.6, 1.9)] * 10]
        assert any(j2 - j1 > 1 for f in polys
                   for (j1, k1, _), (j2, k2, _) in zip(f.terms, f.terms[1:]) if k1 == k2)
        assert any(coeff.real == 0.0 and coeff.imag != 0.0
                   for f in polys for *_, coeff in f.terms)
        for rhos in self.GRIDS:
            for f in polys:
                self.assert_same(f, rhos)
            # One call over rows of two contexts shares only equal factors.
            rows = eval_rows(polys, rhos)
            assert rows.tobytes() == np.stack([ref_eval_array(f, rhos) for f in polys]).tobytes()
            spinor = dc.SpinorFn(tuple(polys[:4]))
            self.assert_same(spinor, rhos)
        # Factors are keyed by kind and value: rho^1.5 is j=0 at a=1.5 and
        # j=1 at a=0.5, and b/(a+k) is 0.9/1.5 at k=0 and at k=1. r's power
        # rho^0.6 has the value of that decay rate, and its rate 0.9/0.6 the
        # value of that power.
        p, q, r = (ExpoPoly(1.5, 0.9, [Term(0, 0, 0.5 - 1j), Term(2, 0, 2.0)]),
                   ExpoPoly(0.5, 0.9, [Term(1, 1, -1.5), Term(3, 1, 0.25j)]),
                   ExpoPoly(0.6, 0.9, [Term(0, 0, 1.0 + 1j)]))
        assert (p.a + 0, p.b / (p.a + 0)) == (q.a + 1, q.b / (q.a + 1))
        assert (r.a + 0, r.b / (r.a + 0)) == (p.b / (p.a + 0), p.a + 0)
        rhos = self.GRIDS[1]
        rows = eval_rows([p, q, r, p], rhos)
        assert rows.tobytes() == np.stack([ref_eval_array(f, rhos)
                                           for f in (p, q, r, p)]).tobytes()
        # One row at 4096 points, the shape interior_zeros samples.
        self.assert_same(polys[0], np.linspace(280.0 / 4096, 280.0, 4096))

    # Polys and spinors sample through the same grid check.
    SAMPLED = (nr.normalize(nr.eigenfunction(NRParams(1.5, 0.5), 2)),
               dc.normalize_spinor(dc.eigenfunction_chain(DiracParams(1.0, 2.0, 1.0, 0.1), 2, "c")))

    @pytest.mark.parametrize("rhos", [[1.0, -math.inf], [-math.inf, 1.0], [math.nan, 1.0],
                                      [math.nan, math.nan], [[0.5, math.nan], [1.0, 2.0]]],
                             ids=["-inf-last", "-inf-first", "nan-first", "all-nan", "nan-2d"])
    def test_grid_check_refuses_every_non_finite_point(self, rhos):
        for f in self.SAMPLED:
            with pytest.raises(DomainError, match="^all sample points must be finite and positive$"):
                f.eval_array(np.array(rhos))

    def test_an_empty_grid_samples_as_no_columns(self):
        poly, spinor = self.SAMPLED
        for rhos in ([], np.empty(0)):
            assert poly.eval_array(rhos).shape == (0,)
            assert spinor.eval_array(rhos).shape == (4, 0)
            assert eval_rows([poly, poly, poly], rhos).shape == (3, 0)

    def test_horner_pass_that_overflows(self):
        # Coefficients near 1e300 overflow partway through the second
        # group's Horner pass on the wide grid (1e300 * 3000^3), in row 0 and
        # after it, so inf and NaN parts (inf * 0 from the +0j of a cast
        # float) meet the power and decay factors. Each row keeps the
        # reference's bits, NaN signs included.
        a, b = 1.3, 0.7
        groups = [(None, [2e300, -3e299j, complex(1e300, -5e299)]),
                  (0, [complex(-1e300, 1e300), 7e299, complex(0.0, -2e300), 1e300])]
        poly = ExpoPoly(a, b, [Term(j, k, c) for k, coeffs in groups
                               for j, c in enumerate(coeffs)])
        rhos = self.GRIDS[1]
        with np.errstate(over="ignore", invalid="ignore"):
            got = poly.eval_array(rhos)
            assert np.isinf(got).any() and np.isnan(got).any() and np.isfinite(got).any()
            self.assert_same(poly, rhos)
            self.assert_same(dc.SpinorFn((poly, poly.scale(-1j), poly, poly.conjugate())),
                             rhos)

    def test_spinors_with_empty_components(self):
        q = DiracParams(1.3, 0.9, -0.4, 0.6)
        poly = random_poly(rng_for(121), q.a, q.b, n_terms=5)
        zero = ExpoPoly.zero(q.a, q.b)
        spinors = [dc.kernel_chi(q, 3), dc.SpinorFn((zero, poly)),
                   dc.SpinorFn((poly, zero, zero, poly)), dc.SpinorFn((zero,) * 4)]
        for f in spinors:
            for rhos in self.GRIDS:
                self.assert_same(f, rhos)
        assert not dc.SpinorFn((zero, poly)).eval_array(self.GRIDS[0])[0].any()

    def test_the_quadrature_grid(self):
        # the grid of verify's quadrature row
        p = NRParams(1.5, 0.5)
        rhos = LogGrid(default_rho_max(p, 3), NR_POINTS).points
        assert rhos.size == 1024
        for n in range(4):
            self.assert_same(nr.eigenfunction(p, n), rhos)
        q = DiracParams(1.5, 0.5, -0.4, 0.2)
        for fam in dc.FAMILIES:
            self.assert_same(dc.eigenfunction_chain(q, 3, fam), rhos)


class TestInnerProduct:
    def test_gamma_identity(self):
        # <rho e^(-rho/2), rho e^(-rho/2)> = Gamma(3)/1^3 = 2; rate 1/2 = b/(a+k)
        p = term(1.0, 1.0, 1.0, j=0, k=1)
        assert p.inner_product(p) == pytest.approx(2.0, rel=1e-14)

    def test_pure_exponential(self):
        # <e^(-rho), e^(-rho)> = 1/2 with b/(a+k) = 2/2
        p = term(1.0, 2.0, 1.0, j=-1, k=1)
        assert p.inner_product(p) == pytest.approx(0.5, rel=1e-14)

    def test_fractional_power(self):
        # <rho^1.5 e^(-0.2 rho), same> = Gamma(4)/0.4^4 = 234.375
        p = term(1.5, 0.5, 1.0, j=0, k=1)
        assert p.inner_product(p) == pytest.approx(234.375, rel=1e-14)

    def test_left_argument_conjugated(self):
        p = term(1.0, 1.0, 1j, j=0, k=0)
        q = term(1.0, 1.0, 1.0, j=0, k=0)
        assert p.inner_product(q).imag < 0

    def test_self_inner_real_nonnegative(self):
        rng = rng_for(13)
        for _ in range(15):
            p = random_poly(rng, float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)))
            val = p.inner_product(p)
            assert abs(val.imag) <= 1e-12 * abs(val)
            assert val.real >= 0

    def test_divergent_power(self):
        p = term(1.0, 1.0, 1.0, j=-2, k=0)
        with pytest.raises(DivergentIntegral):
            p.inner_product(p)

    def test_divergent_rate(self):
        p = term(1.0, 1.0, 1.0, j=1)
        with pytest.raises(DivergentIntegral):
            p.inner_product(p)

    def test_matches_adaptive_quadrature(self):
        from scipy.integrate import quad
        rng = rng_for(14)
        for _ in range(5):
            a, b = float(rng.uniform(0.8, 2.0)), float(rng.uniform(0.8, 2.0))
            p, q = random_poly(rng, a, b), random_poly(rng, a, b)
            # slowest product rate is 2b/(a+3): rho_max captures the tail
            rho_max = 40.0 * (a + 3) / (2 * b)

            def integrand(rho, part):
                val = p.eval(rho).conjugate() * q.eval(rho)
                return val.real if part == "re" else val.imag

            re, _ = quad(integrand, 0.0, rho_max, args=("re",), limit=200)
            im, _ = quad(integrand, 0.0, rho_max, args=("im",), limit=200)
            exact = p.inner_product(q)
            scale = math.sqrt(p.inner_product(p).real * q.inner_product(q).real)
            assert abs(exact - complex(re, im)) <= 1e-8 * scale

    def test_matches_quadrature_on_eigenfunction_pairs(self):
        from susy_ladder.oracle import quad_inner
        params = NRParams(1.5, 0.5)
        grid = LogGrid(default_rho_max(params, 3), NR_POINTS)
        xs = grid.points
        fs = [nr.eigenfunction(params, n) for n in range(3)]
        samples = [f.eval_array(xs) for f in fs]
        for i in range(3):
            for j in range(3):
                exact = fs[i].inner_product(fs[j])
                approx = quad_inner(samples[i], samples[j], grid)
                scale = math.sqrt(fs[i].inner_product(fs[i]).real
                                  * fs[j].inner_product(fs[j]).real)
                assert abs(exact - approx) <= 1e-8 * scale


class TestIsZero:
    def test_residual_scale_floor(self):
        p = term(1.5, 0.5, 1e-14, k=0)
        assert p.is_zero(1e-12)
        assert not term(1.5, 0.5, 1.0, k=0).is_zero(1e-12)

    def test_closure_of_operations(self):
        # differentiation, power shifts, sums and scalings never leave the
        # (j, k) key set
        rng = rng_for(15)
        p = random_poly(rng, 1.1, 0.9, n_terms=4)
        q = p.differentiate().mul_laurent(term(1.1, 0.9, 1.0, j=-1)) + p.scale(2.3j)
        for j, k, _ in q.terms:
            assert isinstance(j, int)
            assert k is None or isinstance(k, int)


class TestOrdered:
    """ExpoPoly.ordered builds terms given in canonical key order without a
    merge or a sort, with the constructor's checks."""

    KEYS = [(-2, None), (-1, None), (-1, 0), (0, None), (0, 1), (0, 3),
            (1, 0), (2, None), (2, 2), (3, 1)]
    COEFFS = [1.5, complex(-0.0, 2.0), 0.0, complex(-0.0, -0.0), complex(3.0, -0.0), -0.0,
              2, complex(0.0, -0.0), complex(float("inf"), 1.0), complex(float("nan"), 0.0)]

    def test_matches_the_sum_of_terms_bit_for_bit(self):
        a, b = 1.3, 0.7
        terms = [(*key, coeff) for key, coeff in zip(self.KEYS, self.COEFFS)]
        built = ExpoPoly.ordered(a, b, terms)
        ref = ExpoPoly.sum(a, b, [ExpoPoly.term(a, b, c, j=j, k=k) for j, k, c in terms])
        assert repr(bits(built.terms)) == repr(bits(ref.terms))
        assert [t[:2] for t in built.terms] == [t[:2] for t in ref.terms]
        assert len(built.terms) == 6
        assert all(type(t) is tuple and type(t[2]) is complex for t in built.terms)
        from_terms = ExpoPoly.ordered(a, b, [Term(*t) for t in terms])
        assert repr(bits(from_terms.terms)) == repr(bits(built.terms))
        assert ExpoPoly.ordered(a, b, ()).terms == ()

    @pytest.mark.parametrize("terms", [
        [(0, None, 1.0), (-1, None, 1.0)],
        [(0, 1, 1.0), (0, None, 1.0)],
        [(1, None, 1.0), (0, 5, 1.0)],
        [(0, 2, 1.0), (0, 1, 0.0)],
    ], ids=["j", "decayed-before-undecayed", "j-across-kinds", "k-with-zero-coeff"])
    def test_refuses_keys_out_of_order(self, terms):
        with pytest.raises(ValueError, match="out of canonical order or repeated"):
            ExpoPoly.ordered(1.5, 0.5, terms)

    @pytest.mark.parametrize("terms", [
        [(-1, None, 1.0), (-1, None, 2.0)],
        [(2, 3, 1.0), (2, 3, 0.0)],
    ], ids=["undecayed", "decayed-with-zero-coeff"])
    def test_refuses_a_repeated_key(self, terms):
        with pytest.raises(ValueError, match="out of canonical order or repeated"):
            ExpoPoly.ordered(1.5, 0.5, terms)

    @pytest.mark.parametrize("key, message", [
        ((1, 0, 0), "too many values to unpack"),
        ((1.0, None), "exponent offset"),
        ((0, 1.0), "decay index must be"),
        ((0, -2), "non-positive rate"),
    ])
    def test_refuses_a_bad_key(self, key, message):
        with pytest.raises(ValueError, match=message):
            ExpoPoly.ordered(1.5, 0.5, [(-3, None, 1.0), (*key, 1.0)])

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0),
                                      (float("nan"), 1.0)])
    def test_refuses_a_non_positive_context(self, a, b):
        with pytest.raises(ValueError, match="context requires"):
            ExpoPoly.ordered(a, b, ())
