"""The closed forms nonrel and dirac build straight in canonical order match
the generic path they replaced (conftest's ref_* builders), bit for bit."""

import pytest
from conftest import (hex_operator, hex_poly, ref_b_dagger, ref_b_op, ref_big_hamiltonian,
                      ref_const, ref_h_operator, ref_kernel_chi, ref_kernel_xi, ref_potential,
                      ref_superpotential, ref_w_coef)

from susy_ladder import dirac as dc
from susy_ladder import nonrel as nr
from susy_ladder.expalg import ExpoPoly
from susy_ladder.params import DiracParams, NRParams

# The CI verify sets (fig2's scalar and fig3's Dirac parameters for the
# defaults), then a tiny a, a large a, d0 = 0, mbar = 0 and a negative d0.
SETS = [(1.5, 0.5, 0.0, 0.0), (1.0, 2.0, 1.0, 0.1), (1.2, 0.8, 0.4, 0.2),
        (0.5764322215230082, 2.1485527100721353, 1.0, 0.1), (0.5, 2.0, 0.1, 0.2),
        (2.3, 0.45, -0.7, 1.1), (1.3, 0.9, -0.4, 0.6),
        (1e-6, 1.0, 1.0, 1.0), (40.0, 1.0, 0.5, 0.5), (1.5, 0.5, 0.0, 0.3),
        (1.2, 0.8, 0.4, 0.0), (0.7, 1.3, -1.2, 0.3)]
LEVELS = range(41)


def _hex_spinor(f):
    return [hex_poly(c) for c in f.components]


@pytest.mark.parametrize("params", SETS, ids=str)
def test_every_closed_form_matches_the_generic_path(params):
    p, q = DiracParams(*params), NRParams(*params[:2])
    for n in LEVELS:
        if n:
            assert hex_poly(nr.superpotential(q, n)) == hex_poly(ref_superpotential(q, n)), n
        assert hex_poly(nr.potential(q, n)) == hex_poly(ref_potential(q, n)), n
        assert hex_poly(dc._w_coef(p, n)) == hex_poly(ref_w_coef(p, n)), n
        for value in (dc.dn(p, n), -dc.dn(p, n), p.mbar, 0.0):
            assert hex_poly(dc._const(p, value)) == hex_poly(ref_const(p, value)), (n, value)
        for build, ref in ((dc.h_operator, ref_h_operator),
                           (dc.big_hamiltonian, ref_big_hamiltonian),
                           (dc.b_dagger, ref_b_dagger), (dc.b_op, ref_b_op)):
            assert hex_operator(build(p, n)) == hex_operator(ref(p, n)), (build.__name__, n)
        for build, ref in ((dc.kernel_chi, ref_kernel_chi), (dc.kernel_xi, ref_kernel_xi)):
            assert _hex_spinor(build(p, n)) == _hex_spinor(ref(p, n)), (build.__name__, n)


def test_closed_forms_build_without_the_generic_path(monkeypatch):
    # W_n, V_n and the operators are built with neither ExpoPoly.term nor
    # ExpoPoly.sum nor +: in canonical order, and no potential entry sums
    # two parts.
    def refuse(*args, **kwargs):
        raise AssertionError("built through ExpoPoly.term, ExpoPoly.sum or +")

    p, q = DiracParams(1.3, 0.9, -0.4, 0.6), NRParams(1.5, 0.5)
    monkeypatch.setattr(ExpoPoly, "term", refuse)
    monkeypatch.setattr(ExpoPoly, "sum", refuse)
    monkeypatch.setattr(ExpoPoly, "__add__", refuse)
    for n in range(4):
        nr.superpotential(q, n + 1)
        nr.potential(q, n)
        dc.b_op(p, n)
        dc.h_operator(p, n)
        dc.big_hamiltonian(p, n)


def test_potential_entries_share_each_scaled_part():
    # big_hamiltonian's 12 nonzero potential entries are 6 distinct polys:
    # +/- mbar and h_n's d_n, -d_n, -i w_n and i w_n, each built once
    op = dc.big_hamiltonian(DiracParams(1.3, 0.9, -0.4, 0.6), 2)
    entries = [pot for row in op.potential for pot in row if pot.terms]
    assert len(entries) == 12 and len({id(pot) for pot in entries}) == 6
