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
from .expalg import ExpoPoly, apply_operator, laguerre_norm2, lower_chain
from .params import NRParams, PhysicalParams, default_rho_max
from .record import Record, set_field

SQRT2 = math.sqrt(2.0)


def _laurent(params: NRParams, pairs: list[tuple[float, int]]) -> ExpoPoly:
    """The Laurent polynomial of (coeff, j) pairs, given in increasing j."""
    return ExpoPoly.ordered(params.a, params.b, [(0, j, None, coeff) for coeff, j in pairs])


def superpotential(params: NRParams, n: int) -> ExpoPoly:
    """W_n = (a+n)/rho - b/(a+n), the log-derivative of level n's ground state."""
    if n < 1:
        raise ValueError("superpotential index starts at 1")
    an = params.a + n
    return _laurent(params, [(an, -1), (-params.b / an, 0)])


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
    return ExpoPoly.term(params.a, params.b, 1.0, mu=1, j=n + 1, k=n + 1)


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
    (d/drho + W_k)/sqrt(2) as ScalarLadder.apply takes it, in one
    expalg.lower_chain pass (bit for bit the same as applying the ladders
    one by one). The result has exactly n+1 terms
    rho^(a+1+j) exp(-b rho/(a+n+1)), j = 0..n.
    """
    scale = 1.0 / SQRT2
    steps = [(((1.0,),), ((superpotential(params, k),),), scale) for k in range(n, 0, -1)]
    (f,) = lower_chain(steps, (ground_state(params, n),))
    return f


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


def field_magnitude(phys: PhysicalParams, rho: float) -> float:
    """|B| = c k / (e rho^2): azimuthal field of the A = (ck/(e rho)) e_z potential."""
    if not 0 < rho < math.inf:
        raise DomainError(f"rho must be finite and positive, got {rho}")
    return phys.c * phys.k / (phys.e * rho ** 2)


def interior_zeros(f: ExpoPoly, rho_max: float) -> list[float]:
    """Sign changes of Re f over 4096 samples of (0, rho_max], each located
    at the midpoint of its bracketing sample pair (to within rho_max/8192).
    Samples where Re f is exactly zero are dropped first, so a zero that
    lands on a sample is bracketed by its neighbours and counted once.
    Raises DomainError unless rho_max is finite and positive."""
    if not (math.isfinite(rho_max) and rho_max > 0):
        raise DomainError(f"rho_max must be finite and positive, got {rho_max}")
    import numpy as np

    xs = np.linspace(rho_max / 4096, rho_max, 4096)
    vals = f.eval_array(xs).real
    keep = vals != 0.0
    xs, vals = xs[keep], vals[keep]
    i = np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    return [float(x) for x in 0.5 * (xs[i] + xs[i + 1])]


def eigenfunction_nodes(params: NRParams, n: int) -> list[float]:
    return interior_zeros(eigenfunction(params, n), default_rho_max(params, n))
