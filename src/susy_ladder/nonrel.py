"""Scalar shape-invariant hierarchy for the radial problem

    [-(1/2) d^2/drho^2 + (a+n)(a+n+1)/(2 rho^2) - b/rho] G = eps G.

First-order ladder operators built from the superpotential
W_n = (a+n)/rho - b/(a+n) intertwine consecutive members, every level's
ground state is a single exponential-polynomial term, and repeated
application of the lowering operators yields the full bound spectrum of the
n = 0 member in closed form. Everything here stays inside the exact algebra;
no differential equation is integrated numerically.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .expalg import ExpoPoly, _wrap, apply_operator, laguerre_norm2
from .params import NRParams, PhysicalParams, default_rho_max, w_coeffs
from .record import Record, set_field

SQRT2 = math.sqrt(2.0)


def _laurent(params: NRParams, pairs: list[tuple[float, int]]) -> ExpoPoly:
    """The Laurent polynomial of (coeff, j) pairs, given in increasing j."""
    return ExpoPoly.ordered(params.a, params.b, [(j, None, coeff) for coeff, j in pairs])


def superpotential(params: NRParams, n: int) -> ExpoPoly:
    """W_n = (a+n)/rho - b/(a+n), the log-derivative of level n's ground state."""
    if n < 1:
        raise ValueError("superpotential index starts at 1")
    inv, const = w_coeffs(params, n)
    return _laurent(params, [(inv, -1), (const, 0)])


def factorization_energy(params: NRParams, n: int) -> float:
    """eps_n = -b^2 / (2 (a+n)^2); the constant split off by the factorization."""
    if n < 1:
        raise ValueError("factorization index starts at 1")
    return -params.b ** 2 / (2.0 * (params.a + n) ** 2)


def potential(params: NRParams, n: int) -> ExpoPoly:
    """V_n = (a+n)(a+n+1)/(2 rho^2) - b/rho."""
    an = params.a + n
    return _laurent(params, [(an * (an + 1) / 2.0, -2), (-params.b, -1)])


def ground_state(params: NRParams, n: int) -> ExpoPoly:
    """Unnormalized ground state of level n: rho^(a+n+1) exp(-b rho/(a+n+1))."""
    return ExpoPoly.term(params.a, params.b, 1.0, j=n + 1, k=n + 1)


class ScalarLadder(Record):
    """First-order ladder operator (±d/drho + W_n)/sqrt(2).

    direction "creation" applies (-d/drho + W_n)/sqrt(2), mapping level n-1
    eigenfunctions to level n; "annihilation" applies (d/drho + W_n)/sqrt(2)
    and walks back down.
    """

    __slots__ = ("direction", "superpotential")

    def __init__(self, direction: str, superpotential: ExpoPoly):
        if direction not in ("creation", "annihilation"):
            raise ValueError(f"unknown direction {direction!r}")
        set_field(self, "direction", direction)
        set_field(self, "superpotential", superpotential)

    def apply(self, f: ExpoPoly) -> ExpoPoly:
        sign = -1.0 if self.direction == "creation" else 1.0
        (out,) = apply_operator(((sign,),), ((self.superpotential,),), (f,))
        return out.scale(1.0 / SQRT2)


def ladder(params: NRParams, n: int, direction: str) -> ScalarLadder:
    return ScalarLadder(direction, superpotential(params, n))


def apply_hamiltonian(params: NRParams, n: int, f: ExpoPoly) -> ExpoPoly:
    """-(1/2) f'' + V_n f, exactly in the algebra."""
    return (f.differentiate().differentiate().scale(-0.5)
            + f.mul_laurent(potential(params, n)))


def riccati_residual(params: NRParams, n: int) -> ExpoPoly:
    """W_n' + W_n^2 - 2 (V_{n-1} - eps_n); identically zero for this family."""
    w = superpotential(params, n)
    eps = factorization_energy(params, n)
    const = ExpoPoly.term(params.a, params.b, 2.0 * eps)
    return (w.differentiate() + w.mul_laurent(w)
            - potential(params, n - 1).scale(2.0) + const)


def eigenfunction(params: NRParams, n: int) -> ExpoPoly:
    """Level-n eigenfunction of the base problem, unnormalized.

    Built by lowering the level-n ground state through the whole chain:
    annihilation operators n, n-1, ..., 1 applied in that order, each
    (d/drho + W_k)/sqrt(2). The result has exactly n+1 terms
    rho^(a+1+j) exp(-b rho/(a+n+1)), j = 0..n, so the chain is carried as
    the list of their coefficients c_j, and each step takes every new
    coefficient in one pass:

        c'_j = 0j + (0j - c_j beta + c_(j+1) (a+j+1)
                     + (0j + c_(j+1) (a+k) - c_j b/(a+k))) / sqrt(2).

    That is the grouping ScalarLadder.apply sums each key in (see
    expalg.apply_operator), so the chain equals applying the ladders one by
    one, bit for bit. W_k's coefficients are those superpotential stores.
    A term that superpotential drops as an exact zero, or a zero decay rate,
    reads a column of 0j instead of the chain's: it then adds a finite 0j,
    which changes no bit of a sum that starts from 0j, where a product of
    the chain's column with zero would turn an infinite coefficient into NaN.
    """
    ((top, rate, coeff),) = ground_state(params, n).terms
    a, b = params.a, params.b
    beta = b / (a + rate)
    scale = 1.0 / SQRT2
    coeffs = [coeff]
    for k in range(n, 0, -1):
        inv, const = (0j + c for c in w_coeffs(params, k))
        # entry j of xs is c_j and of ys c_(j+1), for j from k to top
        xs, ys = [0j, *coeffs], [*coeffs, 0j]
        zeros = [0j] * len(xs)
        coeffs = [0j + (0j + -x * beta + y * (a + j) + (0j + y * inv + z * const)) * scale
                  for x, y, z, j in zip(xs if beta else zeros, ys,
                                        xs if const else zeros, range(k + 1, top + 2))]
    return _wrap(a, b, tuple([(j, rate, c)
                              for j, c in enumerate(coeffs, top - len(coeffs) + 1) if c != 0j]))


def normalize(f: ExpoPoly) -> ExpoPoly:
    """f scaled to unit norm, with the norm taken from the Laguerre closed
    form (expalg.laguerre_norm2): eigenfunction(params, n) is
    c rho^(a+1) e^(-beta rho) L_n^(2a+1)(2 beta rho), beta = b/(a+n+1).
    Raises ValueError for any other shape, PrecisionLoss when the chain's
    coefficients have left that form."""
    return f.scale(1.0 / math.sqrt(laguerre_norm2(f)))


def spectrum_radial(params: NRParams, n: int) -> float:
    """n-th bound eigenvalue of the base problem: -b^2 / (2 (a+n+1)^2)."""
    return factorization_energy(params, n + 1)


def spectrum_physical(phys: PhysicalParams, n: int) -> float:
    """Bound energy in laboratory units:

        E_n = p_z^2/(2m) [1 - k^2 / (hbar^2 (lam/hbar + n + 1/2)^2)].
    """
    phys._require_bound()
    denom = (phys.lam / phys.hbar + n + 0.5) ** 2
    return phys.pz ** 2 / (2.0 * phys.m) * (1.0 - phys.k ** 2 / (phys.hbar ** 2 * denom))


def interior_zeros(f: ExpoPoly, rho_max: float) -> list[float]:
    """Sign changes of Re f over 4096 samples of (0, rho_max], each located
    at the midpoint of its bracketing sample pair (to within rho_max/8192).
    Samples where Re f is exactly zero are dropped first, so a zero that
    lands on a sample is bracketed by its neighbours and counted once.
    Neighbours are compared by their signs, never by their product, which
    would underflow to 0 below about 1e-162 and overflow above about 1e154;
    a NaN sample brackets no zero.
    Raises DomainError unless rho_max is finite and positive."""
    if not (math.isfinite(rho_max) and rho_max > 0):
        raise DomainError(f"rho_max must be finite and positive, got {rho_max}")
    import numpy as np

    xs = np.linspace(rho_max / 4096, rho_max, 4096)
    vals = f.eval_array(xs).real
    keep = vals != 0.0
    xs, vals = xs[keep], vals[keep]
    signs = np.sign(vals)
    i = np.nonzero(signs[:-1] == -signs[1:])[0]
    return [float(x) for x in 0.5 * (xs[i] + xs[i + 1])]


def eigenfunction_nodes(params: NRParams, n: int) -> list[float]:
    return interior_zeros(eigenfunction(params, n), default_rho_max(params, n))
