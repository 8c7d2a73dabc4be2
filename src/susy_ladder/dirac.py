"""Matrix intertwining hierarchy for the radial Dirac problem.

After separating the cylindrical variables and rotating the spin frame, the
radial operator becomes

    H_n = [[ mbar*s0, h_n ], [ h_n, -mbar*s0 ]],
    h_n = -i s1 d/drho + ((a+n)/rho - b/(a+n)) s2 + d_n s3,

with s_i the Pauli matrices. A first-order block operator built from a 2x2
intertwiner links H_n to H_{n+1}; the intertwiner's diagonal is the scalar
superpotential at a+n and at a+n+1, which is the hierarchy's shape
invariance. Its kernel is spanned by two explicit exponential-polynomial
spinors, which seed four families of eigenvectors.
Lowering chains map every level back to H_0, giving the bound spectrum

    +/- sqrt(mbar^2 + d_n^2),   d_n^2 = d0^2 + n(2a+n) b^2 / (a^2 (a+n)^2).

All operator applications happen inside the exact algebra.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .errors import NegativeRadicand
from .expalg import ExpoPoly, _wrap, apply_operator, eval_rows, laguerre_norm2
from .params import FAMILIES, DiracParams, PhysicalParams, w_coeffs
from .record import Record, set_field

if TYPE_CHECKING:
    import numpy as np

# A constant matrix: nested tuples of Python complex, rows first.
Matrix = tuple[tuple[complex, ...], ...]


def _entrywise(fn, *mats: Matrix) -> Matrix:
    """fn applied to the entries of equal-shaped matrices, position by position."""
    return tuple(tuple(fn(*xs) for xs in zip(*rows)) for rows in zip(*mats))


def _blocks(grid) -> Matrix:
    """The matrix of a 2x2 grid of equal-sized square blocks, as np.block."""
    return tuple(left[i] + right[i] for left, right in grid for i in range(len(left)))


# Each entry, -0.0 parts included, is that of the complex numpy array the
# matrix was built as before, so operators built from them apply bit for bit
# as they did.
S0: Matrix = ((1 + 0j, 0j), (0j, 1 + 0j))
S1: Matrix = ((0j, 1 + 0j), (1 + 0j, 0j))

_ZERO2: Matrix = ((0j, 0j), (0j, 0j))
_MINUS_S0 = _entrywise(lambda x: -x, S0)
ALPHA1 = _blocks(((_ZERO2, S1), (S1, _ZERO2)))

# The other constant matrices the operators take, built once at import.
_MINUS_I_S1 = _entrywise(lambda x: -1j * x, S1)
_MINUS_I_ALPHA1 = _entrywise(lambda x: -1j * x, ALPHA1)


def _check_family(fam: str) -> None:
    if fam not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {fam!r}")


class SpinorFn(Record):
    """A 2- or 4-component function with exponential-polynomial entries."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[ExpoPoly, ...]):
        if len(components) not in (2, 4):
            raise ValueError("spinor functions have 2 or 4 components")
        ctx = {(c.a, c.b) for c in components}
        if len(ctx) != 1:
            raise ValueError("all components must share one (a, b) context")
        set_field(self, "components", components)

    @property
    def size(self) -> int:
        return len(self.components)

    def __add__(self, other: "SpinorFn") -> "SpinorFn":
        return SpinorFn(tuple(p + q for p, q in
                              zip(self.components, other.components, strict=True)))

    def __sub__(self, other: "SpinorFn") -> "SpinorFn":
        return _wrap_spinor(tuple(p - q for p, q in
                                  zip(self.components, other.components, strict=True)))

    def scale(self, c: complex) -> "SpinorFn":
        return _wrap_spinor(tuple(p.scale(c) for p in self.components))

    def is_zero(self, tol: float = 1e-12) -> bool:
        return all(p.is_zero(tol) for p in self.components)

    def max_abs_coeff(self) -> float:
        return max([p.max_abs_coeff() for p in self.components])

    def eval_array(self, rhos: np.ndarray) -> np.ndarray:
        """Samples at rhos, one row per component (see expalg.eval_rows)."""
        return eval_rows(self.components, rhos)


def _wrap_spinor(components: tuple[ExpoPoly, ...]) -> SpinorFn:
    """A SpinorFn around 2 or 4 components of one (a, b) context, past the
    constructor's checks; for results that hold by construction."""
    f = object.__new__(SpinorFn)
    set_field(f, "components", components)
    return f


def spinor_inner(f: SpinorFn, g: SpinorFn) -> complex:
    """Component-wise closed-form inner product summed over the spinor index."""
    return sum((p.inner_product(q) for p, q in
                zip(f.components, g.components, strict=True)), start=0j)


def normalize_spinor(f: SpinorFn) -> SpinorFn:
    """f scaled to unit norm, with the norm^2 summed over its nonzero
    components by the Laguerre closed form (expalg.laguerre_norm2).

    Every component of eigenfunction_chain(params, n, fam) is one: components
    0 and 2 are c rho^a e^(-beta rho) L_N^(2a-1)(2 beta rho), components 1
    and 3 are c' rho^(a+1) e^(-beta rho) L_(N-1)^(2a+1)(2 beta rho), with
    N = n for families a/b and n+1 for c/d. Raises ValueError for any other
    shape, PrecisionLoss when a component has left that form.
    """
    norm2 = sum(laguerre_norm2(p) for p in f.components if p.terms)
    return f.scale(1.0 / math.sqrt(norm2))


class MatrixOp(Record):
    """First-order operator  dcoef * d/drho + potential(rho).

    dcoef is a constant complex matrix as nested tuples, the form
    apply_operator reads, so an operator is read-only, as are the module
    constants it may share. The potential is a matrix of pure
    Laurent polynomials, so application keeps spinors inside the algebra.
    Compositions are realized by applying operators in sequence rather than
    materializing second-order forms.
    """

    __slots__ = ("dcoef", "potential")

    def __init__(self, dcoef: Matrix, potential: tuple[tuple[ExpoPoly, ...], ...]):
        set_field(self, "dcoef", dcoef)
        set_field(self, "potential", potential)

    @property
    def size(self) -> int:
        return len(self.dcoef)

    def apply(self, f: SpinorFn) -> SpinorFn:
        if f.size != self.size:
            raise ValueError(f"operator size {self.size} vs spinor size {f.size}")
        # The rows share the context of f's components, which apply_operator
        # checks against every potential entry it multiplies by.
        return _wrap_spinor(apply_operator(self.dcoef, self.potential, f.components))


def _const(params: DiracParams, value: complex) -> ExpoPoly:
    return ExpoPoly.ordered(params.a, params.b, ((0, None, value),))


def _w_coef(params: DiracParams, n: int) -> ExpoPoly:
    """w_n = (a+n)/rho - b/(a+n), the scalar superpotential at a + n."""
    inv, const = w_coeffs(params, n)
    return ExpoPoly.ordered(params.a, params.b, ((-1, None, inv), (0, None, const)))


def dn(params: DiracParams, n: int) -> float:
    """Level-n constant of the s3 channel.

    Only the square is fixed by the hierarchy:
    d_n^2 = d0^2 + n(2a+n) b^2 / (a^2 (a+n)^2). The root is taken with the
    sign of d0 (PLUS when d0 = 0), which makes d_n continuous in the inputs
    and equal to d0 at n = 0.
    """
    a, b = params.a, params.b
    dsq = params.d0 ** 2 + n * (2 * a + n) * b ** 2 / (a ** 2 * (a + n) ** 2)
    sign = -1.0 if params.d0 < 0 else 1.0
    return sign * math.sqrt(dsq)


def _xi_coef(params: DiracParams, n: int) -> float:
    """(2(a+n)+1)/(d_{n+1} + d_n) = (a+n)^2 (a+n+1)^2 (d_{n+1} - d_n)/b^2, as
    d_n^2 = d0^2 + b^2 (1/a^2 - 1/(a+n)^2). d_n and d_{n+1} share d0's sign,
    so their sum does not cancel; the difference of the two roots near b/a
    would lose about (b/a) eps at small a.
    """
    an = params.a + n
    return (2 * an + 1) / (dn(params, n + 1) + dn(params, n))


def _delta(params: DiracParams, n: int) -> float:
    """d_(n+1) - d_n, as (b/((a+n)(a+n+1)))^2 times _xi_coef."""
    an = params.a + n
    return (params.b / (an * (an + 1))) ** 2 * _xi_coef(params, n)


def h_operator(params: DiracParams, n: int) -> MatrixOp:
    """2x2 block:  -i s1 d/drho + w_n s2 + d_n s3, with w_n = (a+n)/rho - b/(a+n)."""
    w = _w_coef(params, n)
    d = dn(params, n)
    return MatrixOp(_MINUS_I_S1, ((_const(params, d), w.scale(-1j)),
                                  (w.scale(1j), _const(params, -d))))


def big_hamiltonian(params: DiracParams, n: int) -> MatrixOp:
    """4x4 level-n operator [[mbar s0, h_n], [h_n, -mbar s0]]; its entries
    share h_n's polys."""
    zero = ExpoPoly.zero(params.a, params.b)
    m, minus_m = _const(params, params.mbar), _const(params, -params.mbar)
    h = h_operator(params, n).potential
    return MatrixOp(_MINUS_I_ALPHA1, _blocks((
        (((m, zero), (zero, m)), h),
        (h, ((minus_m, zero), (zero, minus_m))))))


def b_dagger(params: DiracParams, n: int) -> MatrixOp:
    """2x2 raising intertwiner between levels n and n+1:

        -s0 d/drho + [[w_n, -i (d_{n+1} - d_n)], [0, w_{n+1}]],

    with w_k = (a+k)/rho - b/(a+k) the scalar superpotential at a + k: the
    shape invariance of the hierarchy. d_{n+1} - d_n is _delta.
    """
    return MatrixOp(_MINUS_S0, ((_w_coef(params, n), _const(params, -1j * _delta(params, n))),
                                (ExpoPoly.zero(params.a, params.b), _w_coef(params, n + 1))))


def _adjoint(op: MatrixOp) -> MatrixOp:
    """Formal adjoint on (0, inf) with measure d(rho), boundary terms dropped:
    flip the derivative sign and conjugate-transpose the potential."""
    size = op.size
    pot = tuple(tuple(op.potential[j][i].conjugate() for j in range(size))
                for i in range(size))
    dcoef = tuple(tuple(-op.dcoef[j][i].conjugate() for j in range(size))
                  for i in range(size))
    return MatrixOp(dcoef, pot)


def b_op(params: DiracParams, n: int) -> MatrixOp:
    """Formal adjoint of b_dagger; lowers each 2-component half of a level
    n+1 eigenvector to level n:

        d/drho + [[w_n, 0], [i (d_(n+1) - d_n), w_(n+1)]].

    No chain builds it: _lowered_kernel takes its entries from w_coeffs
    and _delta.
    """
    return _adjoint(b_dagger(params, n))


def _block_diag(op: MatrixOp, params: DiracParams) -> MatrixOp:
    zero = ExpoPoly.zero(params.a, params.b)
    off = ((zero, zero), (zero, zero))
    return MatrixOp(_blocks(((op.dcoef, _ZERO2), (_ZERO2, op.dcoef))),
                    _blocks(((op.potential, off), (off, op.potential))))


def a_dagger(params: DiracParams, n: int) -> MatrixOp:
    """4x4 raising intertwiner: the 2x2 intertwiner on both diagonal blocks."""
    return _block_diag(b_dagger(params, n), params)


def a_op(params: DiracParams, n: int) -> MatrixOp:
    """Formal adjoint of a_dagger; lowers level n+1 eigenvectors to level n.

    Applying it equals applying b_op to each half, bit for bit: every row is
    summed from the same parts in the same order.
    """
    return _block_diag(b_op(params, n), params)


def kernel_chi(params: DiracParams, n: int) -> SpinorFn:
    """First kernel spinor of the level-n intertwiner: (1, 0) rho^(a+n) e^(-b rho/(a+n))."""
    a, b = params.a, params.b
    return SpinorFn((ExpoPoly.term(a, b, 1.0, j=n, k=n), ExpoPoly.zero(a, b)))


def kernel_xi(params: DiracParams, n: int) -> SpinorFn:
    """Second kernel spinor, decaying at the slower rate b/(a+n+1):

        ( i c (1 - b rho/((a+n)(a+n+1))) )
        (              rho               )  * rho^(a+n) e^(-b rho/(a+n+1)),

    with c = (2(a+n)+1)/(d_{n+1} + d_n) (_xi_coef).
    """
    a, b = params.a, params.b
    an = a + n
    c = _xi_coef(params, n)
    comp0 = ExpoPoly.ordered(a, b, ((n, n + 1, 1j * c),
                                    (n + 1, n + 1, -1j * c * b / (an * (an + 1)))))
    comp1 = ExpoPoly.term(a, b, 1.0, j=n + 1, k=n + 1)
    return SpinorFn((comp0, comp1))


def _family_level(params: DiracParams, n: int, fam: str) -> tuple[float, float]:
    """(d, sqrt(mbar^2 + d^2)) of the family's level n: d = d_n for families
    a/b and d_{n+1} for c/d. Raises ValueError for an unknown family."""
    _check_family(fam)
    d = dn(params, n) if fam in ("a", "b") else dn(params, n + 1)
    return d, math.hypot(params.mbar, d)


def family_eigenvalue(params: DiracParams, n: int, fam: str) -> float:
    """Level-n eigenvalue of the family: +sqrt(mbar^2 + d^2) for a/c, - for b/d.
    b/d take 0.0 - s, so the zero mode at d0 = mbar = 0 prints as +0.0."""
    _, s = _family_level(params, n, fam)
    return s if fam in ("a", "c") else 0.0 - s


_KERNELS = {"a": kernel_chi, "b": kernel_chi, "c": kernel_xi, "d": kernel_xi}


def _weights(params: DiracParams, n: int, fam: str) -> tuple[float, float]:
    """(upper, lower) weights of the family's kernel spinor K in its level-n
    eigenvector (upper K, lower K).

    h_n K = d K for chi and -d K for xi, so the lower weight is d/(s + mbar)
    for family a, -(s + mbar)/d for b (s - mbar rewritten as d^2/(s + mbar)
    for numerical stability), and the negatives for c and d, with upper
    weight 1. d = 0 happens only at level 0 of families a/b with d0 = 0,
    where h_0 chi = 0: (chi, 0) has E = +mbar and (0, chi) has E = -mbar.
    """
    d, s = _family_level(params, n, fam)
    if d == 0.0:
        return (1.0, 0.0) if fam in ("a", "c") else (0.0, 1.0)
    if fam in ("a", "c"):
        ratio = d / (s + params.mbar)
        return 1.0, -ratio if fam == "c" else ratio
    ratio = (s + params.mbar) / d
    return 1.0, -ratio if fam == "b" else ratio


def _weighted(kernel: SpinorFn, weight: float) -> SpinorFn:
    """weight times kernel: kernel itself at weight 1, so a shared kernel stays shared."""
    return kernel if weight == 1.0 else kernel.scale(weight)


def _stacked(kernel: SpinorFn, weights: tuple[float, float]) -> SpinorFn:
    return _wrap_spinor(tuple(p for w in weights for p in _weighted(kernel, w).components))


def eigenvector_halves(params: DiracParams, n: int) -> list[SpinorFn]:
    """The six distinct 2-component halves of level n's four family
    eigenvectors: chi, xi, then the lower half of each family in FAMILIES
    order. Each kernel spinor is built once; every other half of eigenvector
    is its kernel or zero. A half is its kernel weighted as eigenvector
    weights it, so it has the bits of the matching half of eigenvector.
    """
    kernels = {kernel: kernel(params, n) for kernel in (kernel_chi, kernel_xi)}
    return [*kernels.values(),
            *(_weighted(kernels[_KERNELS[fam]], _weights(params, n, fam)[1])
              for fam in FAMILIES)]


def eigenvector(params: DiracParams, n: int, fam: str) -> tuple[SpinorFn, float]:
    """Level-n eigenvector annihilated by the raising intertwiner, with its
    eigenvalue. Families a/b stack the chi kernel, c/d the xi kernel, each
    half weighted by _weights.
    """
    weights = _weights(params, n, fam)
    return _stacked(_KERNELS[fam](params, n), weights), family_eigenvalue(params, n, fam)


@functools.lru_cache(maxsize=64)
def _lowered_kernel(params: DiracParams, n: int, kernel) -> SpinorFn:
    """The kernel spinor of level n lowered to level 0: each half of the
    chain of both families it seeds, weighted by the family's _weights.

    The kernel goes through b_op(params, n-1), ..., b_op(params, 0), each
    d/drho + [[w_k, 0], [i delta_k, w_(k+1)]], and no operator is built:
    each step reads its five numbers from w_coeffs and _delta, the helpers
    b_dagger is built from. Both components keep the kernel's decayed
    terms rho^(a+j) at its one decay rate beta, so they are carried as
    lists of coefficients c_j and e_j over one range of j, and each step
    takes every new coefficient of a component in one pass:

        c'_j = 0.0 - c_j beta + c_(j+1) p_(j+1) + (0.0 + c_(j+1) w1 + c_j w0),
        e'_j = 0.0 - e_j beta + e_(j+1) p_(j+1) + c_j i delta + (0.0 + e_(j+1) v1 + e_j v0),

    with p_j = a + j and (w1, w0), (v1, v0) the 1/rho and constant
    coefficients of w_k and w_(k+1). That is the grouping
    MatrixOp.apply sums each key in (see expalg.apply_operator), so the
    chain equals applying each operator in turn, bit for bit. (MatrixOp.apply
    adds the lower row's i delta part before its derivative part; neither
    has a -0.0 part, so their order changes no bit.)

    Every coefficient but i delta is real, so each component stays on one
    axis: chi's upper component is real and xi's imaginary, and each lower
    component is i times its upper one. The chain runs in floats, one per
    coefficient on its component's axis, with i delta c_j read as delta c_j
    for chi and -delta c_j for xi (i i = -1), and builds each term's
    complex(c) or complex(0.0, c) once, at the end. That keeps every bit of
    a finite coefficient: complex times float promotes the float, so each
    product's part on the axis is the float product minus a zero, and its
    other part sums zeros. Both only flip the sign of a zero, which the 0.0
    head of every sum clears, so no stored part is -0.0.

    A coefficient that underflows to zero (w_k's constant, delta_k), which
    b_op's entry drops, or a zero decay rate, reads a column of 0.0 instead
    of the chain's: it adds a finite 0.0, which changes no bit of a sum that
    starts from 0.0, where a product of the chain's column with zero would
    turn an infinite coefficient into NaN. A coefficient that overflows
    reads inf or NaN on its axis and 0.0 off it, at the same key where
    MatrixOp.apply, which multiplies inf by the 0.0 off the axis, reads
    nan+nanj; every finite coefficient keeps its bits.

    Cached per (params, n, kernel), so families a/b (and c/d) lower it once;
    a four-family sweep holds two entries per (params, n). The result is
    shared, and frozen like every SpinorFn.
    """
    a, b = params.a, params.b
    seed = kernel(params, n).components
    used = [f.terms for f in seed if f.terms]
    _, rate, _ = used[0][0]
    lo = min(terms[0][0] for terms in used)
    top = max(terms[-1][0] for terms in used)
    # xi's lower component is real, chi's is zero
    turned = any(coeff.real for _, _, coeff in seed[1].terms)
    cols = []
    for f, imag in zip(seed, (turned, not turned)):
        col = [0.0] * (top - lo + 1)
        for j, _, coeff in f.terms:
            col[j - lo] = coeff.imag if imag else coeff.real
        cols.append(col)
    upper, lower = cols
    beta = b / (a + rate)
    for k in range(n - 1, -1, -1):
        w1, w0 = w_coeffs(params, k)
        v1, v0 = w_coeffs(params, k + 1)
        delta = -_delta(params, k) if turned else _delta(params, k)
        lo -= 1
        # entry j of xs is c_j and of ys c_(j+1), for j from lo up
        xs, ys = [0.0, *upper], [*upper, 0.0]
        xl, yl = [0.0, *lower], [*lower, 0.0]
        zeros = [0.0] * len(xs)
        js = range(lo + 1, lo + 1 + len(xs))
        upper = [0.0 + -x * beta + y * (a + j) + (0.0 + y * w1 + z * w0)
                 for x, y, z, j in zip(xs if beta else zeros, ys, xs if w0 else zeros, js)]
        lower = [0.0 + -x * beta + y * (a + j) + u * delta + (0.0 + y * v1 + z * v0)
                 for x, y, u, z, j in zip(xl if beta else zeros, yl, xs if delta else zeros,
                                          xl if v0 else zeros, js)]
    return _wrap_spinor(tuple(
        _wrap(a, b, tuple([(j, rate, complex(0.0, c) if imag else complex(c))
                           for j, c in enumerate(col, lo) if c]))
        for col, imag in ((upper, turned), (lower, not turned))))


def eigenfunction_chain(params: DiracParams, n: int, fam: str) -> SpinorFn:
    """Level-0 eigenfunction obtained by lowering the level-n eigenvector
    through the chain; eigenvector of the base operator at the family's
    level-n eigenvalue.

    a_op is block-diagonal and linear, and each half of the eigenvector is
    a weight times the kernel spinor. So the chain is the lowered kernel
    stacked with the same weights: one lowering per kernel, shared by both
    families it seeds. A half weighted by neither 0 nor 1 agrees with
    lowering the weighted kernel through b_op to roundoff (within 5.1e-16
    of the largest coefficient through level 12 on three parameter sets),
    not bit for bit.
    """
    return _stacked(_lowered_kernel(params, n, _KERNELS[fam]), _weights(params, n, fam))


def spectrum_dirac(phys: PhysicalParams, n: int, sign: int) -> float:
    """Bound energy of the full relativistic problem:

        +/- m c^2 sqrt(1 + p_z^2/(m^2 c^2)
                         - p_z^2 k^2 / (hbar^2 m^2 c^2 (lam/hbar + n)^2)).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    phys._require_bound()
    radicand = (1.0 + phys.pz ** 2 / (phys.m * phys.c) ** 2
                - phys.pz ** 2 * phys.k ** 2
                / (phys.hbar ** 2 * (phys.m * phys.c) ** 2
                   * (phys.lam / phys.hbar + n) ** 2))
    if radicand < 0:
        raise NegativeRadicand(f"radicand {radicand} < 0")
    return sign * phys.m * phys.c ** 2 * math.sqrt(radicand)
